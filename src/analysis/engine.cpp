#include "analysis/engine.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/callgraph.hpp"
#include "analysis/rules_file.hpp"
#include "analysis/rules_flow.hpp"

namespace fs = std::filesystem;

namespace herd::analysis {

namespace {

bool lintable(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

void Engine::add_file(std::string path, std::string source) {
  File f;
  f.path = std::move(path);
  f.source = std::move(source);
  files_.push_back(std::move(f));
}

bool Engine::add_path(const fs::path& root) {
  std::error_code ec;
  if (!fs::exists(root, ec)) return false;
  if (fs::is_regular_file(root, ec)) {
    if (lintable(root)) add_file(root.generic_string(), read_file(root));
    return true;
  }
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() &&
        it->path().filename().string().rfind("lint_fixtures", 0) == 0) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable(it->path())) {
      paths.push_back(it->path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) add_file(p.generic_string(), read_file(p));
  return true;
}

void Engine::run() {
  violations_.clear();
  tus_.clear();
  tus_.reserve(files_.size());
  for (File& f : files_) {
    f.stream = lex(f.source);
    run_file_rules(f.path, f.stream.tokens, violations_);
    tus_.push_back(build_index(f.path, f.stream));
  }
  CallGraph graph(tus_);
  run_flow_rules({tus_, graph}, violations_);
  auto key = [](const Violation& v) {
    return std::tie(v.file, v.line, v.rule, v.detail);
  };
  std::sort(violations_.begin(), violations_.end(),
            [&](const Violation& a, const Violation& b) {
              return key(a) < key(b);
            });
  violations_.erase(std::unique(violations_.begin(), violations_.end(),
                                [&](const Violation& a, const Violation& b) {
                                  return key(a) == key(b);
                                }),
                    violations_.end());
}

}  // namespace herd::analysis

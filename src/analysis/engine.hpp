// herd::analysis — the lint engine.
//
// Owns the full pipeline: lex each file once into a token stream, run the
// seven per-file rules over it, build the per-TU indexes, then run the three
// flow-aware rules over the cross-TU call graph. Every rule reads the same
// token stream. Violations come out in one stable order: sorted by
// (file, line, rule, detail), exact duplicates dropped.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/index.hpp"
#include "analysis/lexer.hpp"
#include "analysis/violation.hpp"

namespace herd::analysis {

class Engine {
 public:
  /// Registers one file's source text.
  void add_file(std::string path, std::string source);

  /// Registers a source file, or every .cpp/.hpp/.cc/.h file under a
  /// directory in sorted order. Planted-violation fixture directories
  /// (`lint_fixtures*`) below `root` are skipped: they lint only when named
  /// as a root. False when `root` does not exist.
  bool add_path(const std::filesystem::path& root);

  /// Runs everything. Call once, after all files are added.
  void run();

  const std::vector<Violation>& violations() const { return violations_; }
  std::size_t file_count() const { return files_.size(); }

  /// Per-TU indexes (valid after run()); exposed for tests.
  const std::vector<TuIndex>& tus() const { return tus_; }

 private:
  struct File {
    std::string path;
    std::string source;
    TokenStream stream;
  };
  std::vector<File> files_;
  std::vector<TuIndex> tus_;
  std::vector<Violation> violations_;
};

}  // namespace herd::analysis

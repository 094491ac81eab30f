// Lint canary: raw new/delete in a simulation path. Ownership must flow
// through std::unique_ptr or a container.
namespace herd::chaos {

int planted_raw_new() {
  int* p = new int(7);  // expect: raw-new
  int v = *p;
  delete p;  // expect: raw-new
  return v;
}

}  // namespace herd::chaos

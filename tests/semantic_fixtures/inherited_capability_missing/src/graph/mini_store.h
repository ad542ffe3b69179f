// Semantic fixture: inherited_capability with apply_coalesced deleted
// from the base — MiniStore still declares the capability, so
// backend-contract fires on the derived class.
#ifndef MINI_STORE_H
#define MINI_STORE_H
#include <vector>
struct MiniEdges {
    std::vector<int> items_;
};
template <typename EdgeSet> class MiniBase {
  public:
    void apply_bulk() {}

  private:
    std::vector<EdgeSet> rows_;
};
class MiniStore : public MiniBase<MiniEdges> {};
#endif

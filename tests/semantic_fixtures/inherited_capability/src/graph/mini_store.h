// Semantic fixture: MiniStore declares apply_coalesced in layers.toml and
// inherits it from a class template over its edge set.  The contract pass
// must count the inherited member, and the hot-path walk must follow it
// into the base with EdgeSet bound to MiniEdges: that is the only way to
// reach the growth site below, so its pragma is consumed and the fixture
// reports nothing.
#ifndef MINI_STORE_H
#define MINI_STORE_H
#include <vector>
struct MiniEdges {
    void add_edge(int v)
    {
        // igs-lint: allow(hot-path-alloc) -- fixture growth site
        items_.push_back(v);
    }
    std::vector<int> items_;
};
template <typename EdgeSet> class MiniBase {
  public:
    void apply_coalesced(int v)
    {
        EdgeSet& set = rows_[v];
        set.add_edge(v);
    }

  private:
    std::vector<EdgeSet> rows_;
};
class MiniStore : public MiniBase<MiniEdges> {};
#endif

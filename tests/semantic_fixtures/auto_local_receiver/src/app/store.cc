// Fixture: Store::apply_insert reaches EdgeSet::add_edge only through
// `auto& set = ... out_[v] ... in_[v]`; the append inside must be flagged.
#include <vector>

struct EdgeSet {
    void add_edge(int v);
    std::vector<int> items;
};

struct Store {
    void apply_insert(int v, bool out);
    std::vector<EdgeSet> out_;
    std::vector<EdgeSet> in_;
};

void
EdgeSet::add_edge(int v)
{
    items.push_back(v);
}

void
Store::apply_insert(int v, bool out)
{
    auto& set = out ? out_[v] : in_[v];
    set.add_edge(v);
}

// Semantic fixture: a kernel templated over the store reaches the
// store's inherited apply_coalesced.
#ifndef KERNEL_H
#define KERNEL_H
template <typename G> void apply_batch(G& g, int v) { g.apply_coalesced(v); }
#endif

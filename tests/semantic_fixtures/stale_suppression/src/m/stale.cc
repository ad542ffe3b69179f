// Fixture: the allow(lock-order-cycle) pragma below suppresses nothing
// and must be reported as stale-suppression.  The allow(hot-path-alloc)
// pragma silences a live allocation on the hot root grow(), so it must
// NOT be reported.  Both rules belong to igs_semantic, which audits
// every pragma of its own rules.

int counter_value = 0; // igs-lint: allow(lock-order-cycle)

void
grow(Buffer& buf)
{
    // igs-lint: allow(hot-path-alloc) -- grow-only fixture append
    buf.items.push_back(1);
}

// Fixture: hot_kernel calls detail::append_one; its push_back must be
// flagged.  other::append_one is never called from the root.
namespace app::detail {
inline void
append_one(Buffer& buf)
{
    buf.items.push_back(1);
}
} // namespace app::detail

namespace app::other {
inline void
append_one(Buffer& buf)
{
    buf.items.push_back(2);
}
} // namespace app::other

namespace app {
inline void
hot_kernel(Buffer& buf)
{
    detail::append_one(buf);
}
} // namespace app

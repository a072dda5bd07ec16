#include "serde.hh"

#include <algorithm>
#include <cstdlib>
#include <new>

#include "common/log.hh"

namespace dasdram
{

Archive::Archive() : saving_(true) {}

Archive::Archive(std::span<const unsigned char> payload)
    : saving_(false), in_(payload.data()), end_(payload.size())
{
}

Archive::~Archive() { std::free(out_); }

void
Archive::grow(std::size_t n)
{
    // Doubling keeps appends amortised O(1); realloc can move a large
    // buffer by remapping its pages instead of copying them.
    std::size_t cap = std::max({end_ * 2, pos_ + n, std::size_t{1} << 16});
    auto *p = static_cast<unsigned char *>(std::realloc(out_, cap));
    if (!p)
        throw std::bad_alloc();
    out_ = p;
    end_ = cap;
}

void
Archive::truncated(const char *what) const
{
    fatal("snapshot stream truncated mid-{} (offset {})", what, pos_);
}

void
Archive::badEntryIndex(std::string_view what, std::uint64_t i,
                       std::uint64_t n, std::uint64_t prev)
{
    if (i >= n)
        fatal("checkpoint: {} {} is outside the table's {} entries", what,
              i, n);
    fatal("checkpoint: {} {} does not follow {} {}: live entries are "
          "saved in ascending order",
          what, i, what, prev);
}

void
Archive::io(std::string &s)
{
    std::uint64_t n = s.size();
    raw64(n);
    if (saving_) {
        if (n > 0)
            std::memcpy(claim(n), s.data(), n);
        return;
    }
    const unsigned char *p = consume(n, "string");
    s.assign(reinterpret_cast<const char *>(p), static_cast<std::size_t>(n));
}

void
Archive::blob(void *p, std::size_t n)
{
    if (n == 0)
        return;
    if (saving_)
        std::memcpy(claim(n), p, n);
    else
        std::memcpy(p, consume(n, "blob"), n);
}

void
Archive::section(const char *name)
{
    std::string s = name;
    io(s);
    if (!saving_ && s != name)
        fatal("snapshot section mismatch: expected '{}', found '{}'",
              name, s);
    if (saving_) {
        stack_.push_back(pos_);
        std::uint64_t placeholder = 0;
        raw64(placeholder); // patched by end()
    } else {
        std::uint64_t len = 0;
        raw64(len);
        if (len > end_ - pos_)
            fatal("snapshot section '{}' overruns the stream", name);
        stack_.push_back(pos_ + static_cast<std::size_t>(len));
    }
}

void
Archive::end()
{
    if (stack_.empty())
        panic("Archive::end without a matching section");
    std::size_t top = stack_.back();
    stack_.pop_back();
    if (saving_) {
        std::uint64_t len = pos_ - top - 8;
        std::memcpy(out_ + top, &len, 8);
    } else if (pos_ != top) {
        fatal("snapshot section length mismatch: {} byte(s) "
              "unconsumed", top - pos_);
    }
}

void
Archive::expectCount(std::uint64_t n, const char *what)
{
    std::uint64_t saved = n;
    raw64(saved);
    if (!saving_ && saved != n)
        fatal("snapshot shape mismatch for {}: file has {}, this "
              "configuration builds {}",
              what, saved, n);
}

std::span<const unsigned char>
Archive::payload() const
{
    if (!stack_.empty())
        panic("Archive::payload with {} open section(s)", stack_.size());
    return {out_, pos_};
}

void
Archive::finish()
{
    if (!stack_.empty())
        panic("Archive::finish with {} open section(s)", stack_.size());
    if (pos_ != end_)
        fatal("snapshot payload has {} trailing byte(s)", end_ - pos_);
}

} // namespace dasdram

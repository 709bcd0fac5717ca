/**
 * @file
 * Delta serialization of the sparse memory image against a shared
 * pristine base (see memory_image.hh). Lives out of line so the page
 * table iteration can be key-sorted in one place.
 */

#include "isa/memory_image.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace cdfsim::isa
{

void
MemoryImage::saveDelta(SnapWriter &w, const MemoryImage &base) const
{
    // Collect the ids of pages that are not shared with the base.
    // Under copy-on-write a page diverges from the base exactly when
    // its shared_ptr does, so pointer comparison is sufficient —
    // and cheap enough to run per checkpoint.
    std::vector<Addr> dirty;
    for (const auto &[id, page] : pages_) {
        auto it = base.pages_.find(id);
        if (it == base.pages_.end() || it->second != page)
            dirty.push_back(id);
    }
    std::sort(dirty.begin(), dirty.end());
    w.u64(dirty.size());
    for (Addr id : dirty)
        w.io(id, *pages_.at(id));
}

void
MemoryImage::restoreDelta(SnapReader &r, const MemoryImage &base)
{
    pages_ = base.pages_; // share every pristine page again
    const std::uint64_t dirty = r.u64();
    for (std::uint64_t i = 0; i < dirty; ++i) {
        Addr id = 0;
        auto page = std::make_shared<Page>();
        r.io(id, *page);
        pages_[id] = std::move(page);
    }
}

} // namespace cdfsim::isa

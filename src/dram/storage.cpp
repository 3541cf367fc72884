#include "dram/storage.hpp"

#include <algorithm>
#include <cstring>

namespace cachecraft {

const SparseMemory::Page *
SparseMemory::findPage(Addr addr) const
{
    const Addr leaf_index = addr >> (kPageBits + kLeafBits);
    const Leaf *leaf = nullptr;
    if (leaf_index < directory_.size()) {
        leaf = directory_[leaf_index].get();
    } else if (leaf_index >= kDirectLeaves) {
        const auto it = farLeaves_.find(leaf_index);
        if (it != farLeaves_.end())
            leaf = it->second.get();
    }
    if (leaf == nullptr)
        return nullptr;
    return (*leaf)[(addr >> kPageBits) & (kLeafPages - 1)].get();
}

SparseMemory::Page &
SparseMemory::pageForWrite(Addr addr)
{
    const Addr leaf_index = addr >> (kPageBits + kLeafBits);
    std::unique_ptr<Leaf> *slot;
    if (leaf_index < kDirectLeaves) {
        if (leaf_index >= directory_.size())
            directory_.resize(leaf_index + 1);
        slot = &directory_[leaf_index];
    } else {
        slot = &farLeaves_[leaf_index];
    }
    if (!*slot)
        *slot = std::make_unique<Leaf>();
    std::unique_ptr<Page> &page =
        (**slot)[(addr >> kPageBits) & (kLeafPages - 1)];
    if (!page) {
        page = std::make_unique<Page>();
        page->fill(fill_);
        ++numPages_;
    }
    return *page;
}

void
SparseMemory::read(Addr addr, std::span<std::uint8_t> out) const
{
    std::size_t done = 0;
    while (done < out.size()) {
        const Addr cur = addr + done;
        const std::size_t off = offsetIn(cur, kPageBytes);
        const std::size_t run =
            std::min(out.size() - done, kPageBytes - off);
        if (const Page *page = findPage(cur))
            std::memcpy(out.data() + done, page->data() + off, run);
        else
            std::memset(out.data() + done, fill_, run);
        done += run;
    }
}

void
SparseMemory::write(Addr addr, std::span<const std::uint8_t> in)
{
    std::size_t done = 0;
    while (done < in.size()) {
        const Addr cur = addr + done;
        const std::size_t off = offsetIn(cur, kPageBytes);
        const std::size_t run = std::min(in.size() - done, kPageBytes - off);
        Page &page = pageForWrite(cur);
        std::memcpy(page.data() + off, in.data() + done, run);
        done += run;
    }
}

void
SparseMemory::flipBit(Addr addr, unsigned bit_in_byte)
{
    Page &page = pageForWrite(addr);
    page[offsetIn(addr, kPageBytes)] ^=
        static_cast<std::uint8_t>(1u << (bit_in_byte & 7));
}

} // namespace cachecraft

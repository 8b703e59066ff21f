#include "alloc_count.hh"

#include <cstdlib>
#include <new>

namespace
{

// Single-threaded by design (see alloc_count.hh): no atomic, so the
// counter adds no locked instruction to every allocation it counts.
std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t size)
{
    ++allocations;
    if (size == 0)
        size = 1;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++allocations;
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

namespace perfbench
{

std::uint64_t
allocCount()
{
    return allocations;
}

} // namespace perfbench

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

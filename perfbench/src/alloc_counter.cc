#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

void *
allocate(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    for (;;) {
        if (void *p = std::malloc(n))
            return p;
        std::new_handler handler = std::get_new_handler();
        if (!handler)
            throw std::bad_alloc();
        handler();
    }
}

} // namespace

namespace perfbench
{

void
setAllocCounting(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

uint64_t
allocCount()
{
    return allocations.load(std::memory_order_relaxed);
}

} // namespace perfbench

// The replaced allocation functions. The aligned and nothrow forms keep
// their library defaults: libstdc++ routes nothrow new through these,
// and nothing on the evolution loop's path allocates over-aligned.
void *
operator new(std::size_t n)
{
    return allocate(n);
}

void *
operator new[](std::size_t n)
{
    return allocate(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

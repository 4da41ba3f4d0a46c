#include "support/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace gmlake
{

std::size_t
defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallelFor(std::size_t n, std::size_t threads,
            const std::function<void(std::size_t)> &fn)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Workers pull the next index from a shared counter; each index
    // runs exactly once, on whichever worker gets there first. A
    // worker stops at the first exception it catches and keeps it in
    // its own slot, so nothing here needs a lock.
    const std::size_t count = std::min(threads, n);
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(count);
    {
        std::vector<std::jthread> workers;
        workers.reserve(count);
        for (std::size_t w = 0; w < count; ++w) {
            workers.emplace_back([&, w] {
                try {
                    for (std::size_t i = next++; i < n; i = next++)
                        fn(i);
                } catch (...) {
                    errors[w] = std::current_exception();
                }
            });
        }
    } // the workers join here
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace gmlake

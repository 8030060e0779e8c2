#include "kernel/process.h"

#include <algorithm>

#include "base/logging.h"

namespace cider::kernel {

Process::Process(Pid pid, std::string name, Process *parent)
    : pid_(pid), name_(std::move(name)), parent_(parent)
{}

Thread &
Process::createThread(Persona persona)
{
    threads_.push_back(std::make_unique<Thread>(nextTid_++, *this, persona));
    return *threads_.back();
}

Thread &
Process::mainThread()
{
    if (threads_.empty())
        // invariant-only: createProcess always creates the main thread.
        cider_panic("process ", name_, " has no threads");
    return *threads_.front();
}

void
Process::terminate(int code, std::uint64_t vtime)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.load(std::memory_order_relaxed) != State::Running)
        return;
    fds_.closeAll();
    exitCode_ = code;
    exitVtime_ = vtime;
    state_.store(State::Zombie, std::memory_order_release);
    exitCv_.notify_all();
}

void
Process::waitUntilZombie()
{
    std::unique_lock<std::mutex> lock(mu_);
    exitCv_.wait(lock, [this] {
        return state_.load(std::memory_order_relaxed) != State::Running;
    });
}

} // namespace cider::kernel

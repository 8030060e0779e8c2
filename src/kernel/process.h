/**
 * @file
 * Process object of the simulated domestic kernel.
 */

#ifndef CIDER_KERNEL_PROCESS_H
#define CIDER_KERNEL_PROCESS_H

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hw/device_profile.h"
#include "kernel/fd_table.h"
#include "kernel/signals.h"
#include "kernel/thread.h"
#include "kernel/types.h"
#include "kernel/vm.h"

namespace cider::kernel {

/** Binary container format of a loaded image. */
enum class BinaryFormat
{
    None,
    Elf,
    MachO,
};

/**
 * A process address space is a real vm_map (kernel/vm.h): VmObject
 * backing stores, COW entries, shared submaps. The 90 MB of dylib
 * mappings dyld creates is the dominant fork cost for iOS binaries in
 * the paper's Figure 5; fork aliases them copy-on-write.
 */
using AddressSpace = VmMap;

/** Main-entry callable bound by a binary loader. */
using EntryFn = std::function<int(Thread &)>;

/** The currently executed binary image of a process. */
struct ProcessImage
{
    std::string path;
    BinaryFormat format = BinaryFormat::None;
    std::string entrySymbol;
    hw::Codegen codegen = hw::Codegen::LinuxGcc;
    Persona persona = Persona::Android;
    std::vector<std::string> dylibDeps;
    std::vector<std::string> argv;
    EntryFn entry;
};

class Process
{
  public:
    enum class State
    {
        Running,
        Zombie, ///< exited, not yet reaped (reaping destroys it)
    };

    Process(Pid pid, std::string name, Process *parent);

    Pid pid() const { return pid_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    Process *parent() const { return parent_; }
    /** Re-home this process (init-style orphan adoption on reap). */
    void reparent(Process *p) { parent_ = p; }

    AddressSpace &mem() { return mem_; }
    FdTable &fds() { return fds_; }
    SignalState &signals() { return signals_; }
    ProcessImage &image() { return image_; }
    ExtMap &ext() { return ext_; }

    /** Create a thread in this process (persona is inherited state). */
    Thread &createThread(Persona persona);
    Thread &mainThread();
    const std::vector<std::unique_ptr<Thread>> &threads() const
    {
        return threads_;
    }

    State state() const { return state_.load(std::memory_order_acquire); }
    int exitCode() const { return exitCode_; }
    /** Virtual time at which the process exited (for wait). */
    std::uint64_t exitVirtualTime() const { return exitVtime_; }

    /** Kernel-side exit: close fds, flip to Zombie, wake waiters. */
    void terminate(int code, std::uint64_t vtime);

    /** Block the calling host thread until this process is a zombie. */
    void waitUntilZombie();

  private:
    Pid pid_;
    std::string name_;
    Process *parent_;
    AddressSpace mem_;
    FdTable fds_;
    SignalState signals_;
    ProcessImage image_;
    ExtMap ext_;
    std::vector<std::unique_ptr<Thread>> threads_;
    Tid nextTid_ = 1;

    std::mutex mu_;
    std::condition_variable exitCv_;
    /** Release-stored by terminate (under mu_); read without mu_ by
     *  signal delivery (sysKill, notifyParentExit). */
    std::atomic<State> state_{State::Running};
    int exitCode_ = 0;
    std::uint64_t exitVtime_ = 0;
};

/** Thrown by the exit syscall to unwind a simulated program body. */
struct ProcessExit
{
    int code;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_PROCESS_H

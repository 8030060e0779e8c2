/**
 * @file
 * The libc wrapper layer, written once for both personas.
 *
 * A persona is a kernel ABI plus a TLS area (paper sections 4.1 and
 * 4.3), and the POSIX wrappers of bionic and libSystem differ only in
 * that ABI: the trap class and syscall numbers a call traps with, the
 * TLS area a failure's errno lands in (negative errno folded to -1 +
 * errno on Linux; carry flag + Darwin errno on XNU, converted at the
 * kernel's dispatch boundary), the key of the process's atexit and
 * pthread_atfork registries, and what running one registered handler
 * costs. LibcAbi holds those as data; Libc writes every wrapper once
 * against it. android::Bionic and ios::LibSystem are Libc built for
 * the Android and the iOS ABI; a persona-neutral program (lmbench,
 * the GL client library) constructs Libc for its thread's persona.
 */

#ifndef CIDER_PERSONA_LIBC_H
#define CIDER_PERSONA_LIBC_H

#include <functional>
#include <string>
#include <vector>

#include "binfmt/program.h"
#include "kernel/kernel.h"

namespace cider::persona {

/** Per-process libc runtime state: the atexit and pthread_atfork
 *  registries (process slot LibcAbi::stateSlot). dyld registers one
 *  exit callback per loaded image, and iOS libraries install many
 *  atfork callbacks. */
struct LibcState
{
    std::vector<std::function<void()>> atexitHandlers;
    struct Atfork
    {
        std::function<void()> prepare;
        std::function<void()> parent;
        std::function<void()> child;
    };
    std::vector<Atfork> atforkHandlers;
};

/** One persona's libc ABI. */
struct LibcAbi
{
    kernel::TrapClass trapClass;
    /** The persona whose TLS area receives errno. */
    kernel::Persona errnoArea;
    /** The process slot of this libc's LibcState. */
    kernel::ProcessSlot stateSlot;
    /** CPU cycles charged per atexit/atfork handler invocation. */
    double handlerCycles;
    /** The syscall number of each shared call. */
    struct Numbers
    {
        int open, close, read, write, dup, pipe, mkdir, unlink, rmdir;
        int ioctl, lseek, stat, rename, dup2, getppid, select;
        int socket, bind, listen, accept, connect, socketpair;
        int getpid, fork, execve, exit, waitpid, kill, sigaction;
        int nullSyscall;
    } nr;
};

/** The libc ABI of persona @p p. */
const LibcAbi &libcAbi(kernel::Persona p);

/** Thin, stateless libc facade bound to one running thread. */
class Libc
{
  public:
    /** The libc of the calling thread's persona. */
    explicit Libc(binfmt::UserEnv &env)
        : Libc(env, libcAbi(env.thread.persona()))
    {}
    Libc(binfmt::UserEnv &env, const LibcAbi &abi) : env_(env), abi_(abi)
    {}

    /// @{ File and descriptor calls.
    int open(const std::string &path, int flags);
    int close(int fd);
    std::int64_t read(int fd, Bytes &out, std::size_t n);
    std::int64_t write(int fd, const Bytes &data);
    int dup(int fd);
    int pipe(int fds[2]);
    int mkdir(const std::string &path);
    int unlink(const std::string &path);
    int rmdir(const std::string &path);
    int ioctl(int fd, std::uint64_t req, void *arg);
    std::int64_t lseek(int fd, std::int64_t offset, int whence);
    int stat(const std::string &path, kernel::StatBuf *out);
    int rename(const std::string &from, const std::string &to);
    int dup2(int fd, int new_fd);
    int getppid();
    int select(std::vector<int> &rd, std::vector<int> &wr,
               std::vector<int> &ready);
    /// @}

    /// @{ Sockets.
    int socket();
    int bind(int fd, const std::string &path);
    int listen(int fd, int backlog);
    int accept(int fd);
    int connect(int fd, const std::string &path);
    int socketpair(int fds[2]);
    /// @}

    /// @{ Process control. Signal numbers are the persona's own.
    int getpid();
    /** Runs the atfork triples around the trap, charging each. */
    int fork(kernel::EntryFn child_body);
    int execve(const std::string &path,
               const std::vector<std::string> &argv);
    /** Runs (and charges) the atexit handlers, newest first. */
    [[noreturn]] void exit(int code);
    int waitpid(int pid, int *status);
    int kill(int pid, int signo);
    int sigaction(int signo, kernel::SignalHandlerFn handler);
    /// @}

    /** lmbench's null syscall probe. */
    int nullSyscall();

    /// @{ Runtime registries.
    void atexit(std::function<void()> fn);
    void pthreadAtfork(std::function<void()> prepare,
                       std::function<void()> parent,
                       std::function<void()> child);
    std::size_t atexitCount();
    std::size_t atforkCount();
    LibcState &state();
    /// @}

    /** errno of the calling thread's TLS area for this ABI. */
    int errno_() const;

    binfmt::UserEnv &env() { return env_; }

  protected:
    /** Trap with this ABI's trap class. */
    kernel::SyscallResult trap(int nr, const kernel::SyscallArgs &args);
    /** User-side convention: -1 + errno on failure. */
    std::int64_t ret(const kernel::SyscallResult &r);

    /** Trap @p nr with @p as, typed as given, for a user-side result. */
    template <typename... As>
    std::int64_t
    sys(int nr, As &&...as)
    {
        return ret(trap(nr, kernel::makeArgs(std::forward<As>(as)...)));
    }

    binfmt::UserEnv &env_;

  private:
    const LibcAbi &abi_;
};

} // namespace cider::persona

#endif // CIDER_PERSONA_LIBC_H

#include "android/gles.h"

#include "android/bionic.h"
#include "base/cost_clock.h"
#include "base/logging.h"
#include "xnu/bsd_syscalls.h"

namespace cider::android {

namespace {

// User-space driver work per GL call (validation, command encode).
constexpr double kGlCallCycles = 100;

/** Charge and count one call; returns the GL state so that a call
 *  looks it up once. */
GlState &
chargeCall(binfmt::UserEnv &env)
{
    charge(env.kernel.profile().cyclesToNs(kGlCallCycles));
    GlState &st = glState(env);
    ++st.callCount;
    return st;
}

} // namespace

GlState &
glState(binfmt::UserEnv &env)
{
    return env.process().ext().get<GlState>("gles.state");
}

void
glFlushPending(binfmt::UserEnv &env)
{
    GlState &st = glState(env);
    if (st.pending.empty())
        return;

    // The GL client library is built per platform: the Android build
    // traps with Linux syscalls, the Apple build (running natively on
    // the iPad) with XNU ones. Either way the driver interface stays
    // opaque to the other ecosystem.
    bool ios_native = env.thread.persona() == kernel::Persona::Ios;
    kernel::TrapClass cls = ios_native ? kernel::TrapClass::XnuBsd
                                       : kernel::TrapClass::LinuxSyscall;
    int open_nr =
        ios_native ? xnu::xnuno::OPEN : kernel::sysno::OPEN;
    int ioctl_nr =
        ios_native ? xnu::xnuno::IOCTL : kernel::sysno::IOCTL;

    if (st.gpuFd < 0) {
        kernel::SyscallResult r = env.kernel.trap(
            env.thread, cls, open_nr,
            kernel::makeArgs(std::string("/dev/nvhost"),
                             static_cast<std::int64_t>(
                                 kernel::oflag::RDWR)));
        if (!r.ok()) {
            warn("libGLESv2: cannot open GPU device");
            st.pending.clear();
            return;
        }
        st.gpuFd = static_cast<int>(r.value);
    }
    std::vector<gpu::GpuCommand> batch;
    batch.swap(st.pending);
    env.kernel.trap(env.thread, cls, ioctl_nr,
                    kernel::makeArgs(
                        static_cast<std::int64_t>(st.gpuFd),
                        static_cast<std::uint64_t>(
                            gpu::GpuDevice::kIoctlSubmit),
                        static_cast<void *>(&batch)));
}

void
glSetRenderTarget(binfmt::UserEnv &env, std::uint32_t buffer_id)
{
    glState(env).boundTarget = buffer_id;
}

std::vector<std::string>
glesExportNames()
{
    return {
        "glActiveTexture", "glAttachShader", "glBindBuffer",
        "glBindFramebuffer", "glBindTexture", "glBlendFunc",
        "glBufferData", "glClear", "glClearColor", "glCompileShader",
        "glCreateProgram", "glCreateShader", "glDeleteTextures",
        "glDepthFunc", "glDisable", "glDrawArrays", "glDrawElements",
        "glEnable", "glEnableVertexAttribArray", "glFinish", "glFlush",
        "glGenBuffers", "glGenTextures", "glGetError",
        "glGetUniformLocation", "glLinkProgram", "glShaderSource",
        "glTexImage2D", "glTexParameteri", "glUniform1f", "glUniform1i",
        "glUniformMatrix4fv", "glUseProgram", "glVertexAttribPointer",
        "glViewport",
    };
}

binfmt::LibraryImage
makeGlesLibrary()
{
    binfmt::LibraryImage lib;
    lib.name = "libGLESv2.so";
    lib.format = kernel::BinaryFormat::Elf;
    lib.pages = 420;
    lib.deps = {"libgralloc.so"};

    using Args = std::vector<binfmt::Value>;
    auto I = [](std::int64_t v) { return binfmt::Value{v}; };

    // State-change calls: validation cost, queued command.
    auto queue_cmd = [](gpu::GpuOp op) {
        return [op](binfmt::UserEnv &env, Args &args) {
            GlState &st = chargeCall(env);
            gpu::GpuCommand cmd;
            cmd.op = op;
            cmd.target = st.boundTarget;
            if (!args.empty())
                cmd.a = static_cast<std::uint64_t>(
                    binfmt::valueI64(args[0]));
            if (args.size() > 1)
                cmd.b = static_cast<std::uint64_t>(
                    binfmt::valueI64(args[1]));
            st.pending.push_back(cmd);
            return binfmt::Value{};
        };
    };

    // Pure client-side calls: validation cost only.
    auto client_only = [](binfmt::UserEnv &env, Args &) {
        chargeCall(env);
        return binfmt::Value{};
    };

    for (const char *sym :
         {"glActiveTexture", "glAttachShader", "glBindBuffer",
          "glBindFramebuffer", "glBlendFunc", "glBufferData",
          "glCompileShader", "glDepthFunc", "glDisable", "glEnable",
          "glEnableVertexAttribArray", "glLinkProgram",
          "glShaderSource", "glTexParameteri", "glUniform1f",
          "glUniform1i", "glUniformMatrix4fv",
          "glVertexAttribPointer", "glViewport"})
        lib.exports.add(sym, client_only);

    lib.exports.add("glClearColor",
                    [](binfmt::UserEnv &env, Args &args) {
                        GlState &st = chargeCall(env);
                        gpu::GpuCommand cmd;
                        cmd.op = gpu::GpuOp::ClearColor;
                        cmd.f0 = binfmt::valueF64(args.at(0));
                        cmd.f1 = binfmt::valueF64(args.at(1));
                        cmd.f2 = binfmt::valueF64(args.at(2));
                        cmd.f3 = binfmt::valueF64(args.at(3));
                        st.pending.push_back(cmd);
                        return binfmt::Value{};
                    });

    lib.exports.add("glClear", queue_cmd(gpu::GpuOp::Clear));

    lib.exports.add("glBindTexture",
                    [](binfmt::UserEnv &env, Args &args) {
                        GlState &st = chargeCall(env);
                        st.boundTexture = static_cast<std::uint32_t>(
                            binfmt::valueI64(args.at(1)));
                        gpu::GpuCommand cmd;
                        cmd.op = gpu::GpuOp::BindTexture;
                        cmd.a = st.boundTexture;
                        st.pending.push_back(cmd);
                        return binfmt::Value{};
                    });

    lib.exports.add("glDrawArrays",
                    [](binfmt::UserEnv &env, Args &args) {
                        GlState &st = chargeCall(env);
                        gpu::GpuCommand cmd;
                        cmd.op = gpu::GpuOp::DrawArrays;
                        cmd.a = static_cast<std::uint64_t>(
                            binfmt::valueI64(args.at(2))); // count
                        cmd.target = st.boundTarget;
                        st.pending.push_back(cmd);
                        return binfmt::Value{};
                    });

    lib.exports.add("glDrawElements",
                    [](binfmt::UserEnv &env, Args &args) {
                        GlState &st = chargeCall(env);
                        gpu::GpuCommand cmd;
                        cmd.op = gpu::GpuOp::DrawArrays;
                        cmd.a = static_cast<std::uint64_t>(
                            binfmt::valueI64(args.at(1)));
                        cmd.target = st.boundTarget;
                        st.pending.push_back(cmd);
                        return binfmt::Value{};
                    });

    lib.exports.add("glTexImage2D",
                    [](binfmt::UserEnv &env, Args &args) {
                        GlState &st = chargeCall(env);
                        gpu::GpuCommand cmd;
                        cmd.op = gpu::GpuOp::TexImage2D;
                        cmd.a = static_cast<std::uint64_t>(
                            binfmt::valueI64(args.at(0)));
                        cmd.b = static_cast<std::uint64_t>(
                            binfmt::valueI64(args.at(1)));
                        st.pending.push_back(cmd);
                        return binfmt::Value{};
                    });

    auto gen_names = [I](binfmt::UserEnv &env, Args &args) {
        GlState &st = chargeCall(env);
        std::int64_t n = args.empty() ? 1 : binfmt::valueI64(args[0]);
        std::int64_t first = static_cast<std::int64_t>(st.nextName);
        st.nextName += static_cast<std::uint64_t>(n);
        return I(first);
    };
    lib.exports.add("glGenTextures", gen_names);
    lib.exports.add("glGenBuffers", gen_names);

    lib.exports.add("glDeleteTextures", client_only);

    lib.exports.add("glCreateProgram", [I](binfmt::UserEnv &env, Args &) {
        return I(static_cast<std::int64_t>(chargeCall(env).nextName++));
    });
    lib.exports.add("glCreateShader", [I](binfmt::UserEnv &env, Args &) {
        return I(static_cast<std::int64_t>(chargeCall(env).nextName++));
    });
    lib.exports.add("glGetUniformLocation",
                    [I](binfmt::UserEnv &env, Args &) {
                        chargeCall(env);
                        return I(1);
                    });
    lib.exports.add("glGetError", [I](binfmt::UserEnv &env, Args &) {
        return I(chargeCall(env).lastError);
    });

    lib.exports.add("glUseProgram",
                    [](binfmt::UserEnv &env, Args &args) {
                        GlState &st = chargeCall(env);
                        st.program = static_cast<std::uint32_t>(
                            binfmt::valueI64(args.at(0)));
                        gpu::GpuCommand cmd;
                        cmd.op = gpu::GpuOp::UseProgram;
                        cmd.a = st.program;
                        st.pending.push_back(cmd);
                        return binfmt::Value{};
                    });

    lib.exports.add("glFlush", [](binfmt::UserEnv &env, Args &) {
        chargeCall(env);
        glFlushPending(env);
        return binfmt::Value{};
    });

    lib.exports.add("glFinish", [](binfmt::UserEnv &env, Args &) {
        GlState &st = chargeCall(env);
        gpu::GpuCommand ins;
        ins.op = gpu::GpuOp::FenceInsert;
        ins.a = st.nextFence;
        gpu::GpuCommand wait;
        wait.op = gpu::GpuOp::FenceWait;
        wait.a = st.nextFence;
        ++st.nextFence;
        st.pending.push_back(ins);
        st.pending.push_back(wait);
        glFlushPending(env);
        return binfmt::Value{};
    });

    return lib;
}

} // namespace cider::android

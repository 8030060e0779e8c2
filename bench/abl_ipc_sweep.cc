/**
 * @file
 * IPC sweep ablation: inline copy vs OOL (zero-copy VmObject
 * reference) across message sizes, plus the fork COW-vs-eager A/B.
 *
 * Modeled on the chromium Mach-vs-pipe message-size measurement: the
 * inline path pays per byte on both sides, the OOL path pays one
 * descriptor hop plus the receiver's map-in fault regardless of size.
 * The sweep must show the crossover the auto-promotion threshold is
 * derived from; the fork A/B must show COW strictly below the eager
 * baseline for a dyld-heavy address space.
 *
 * Emits BENCH_ipc_sweep.json (a CI artifact). Exit 0 on success, 1 on
 * any violated gate.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/vm.h"
#include "xnu/mach_ipc.h"

namespace cider::bench {
namespace {

using kernel::VmMap;
using kernel::VmSubsystem;

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "abl_ipc_sweep: FAIL: %s\n", what.c_str());
    }
}

enum class Mode
{
    Inline, ///< promotion disabled: body copied per byte both sides
    Auto,   ///< profile-derived threshold decides
    Ool,    ///< explicit OOL descriptor, COW-mapped into the receiver
};

const char *
modeName(Mode m)
{
    switch (m) {
    case Mode::Inline:
        return "inline";
    case Mode::Auto:
        return "auto";
    default:
        return "ool";
    }
}

/** Virtual ns for one send+receive of @p bytes under @p mode. */
std::uint64_t
roundTrip(Mode mode, std::size_t bytes)
{
    VmSubsystem vm; // nexus7 cost table
    xnu::MachIpc ipc;
    ipc.setVm(&vm);
    if (mode == Mode::Inline)
        ipc.setOolPromoteThreshold(0);

    xnu::SpacePtr space = ipc.createSpace();
    xnu::mach_port_name_t port = xnu::MACH_PORT_NULL;
    ipc.portAllocate(*space, xnu::PortRight::Receive, &port);

    VmMap sender, receiver;
    sender.bind(&vm);
    receiver.bind(&vm);

    CostClock clock;
    CostScope scope(clock);
    return measureVirtual([&] {
        xnu::MachMessage msg;
        msg.header.remotePort = port;
        msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
        if (mode == Mode::Ool) {
            std::uint64_t addr = sender.mapObject(
                "payload",
                vm.wrapBytes(Bytes(bytes, std::uint8_t{0x5a})),
                kernel::VM_PROT_RW, false, false);
            xnu::OolDescriptor ool;
            ipc.makeOolFromRegion(sender, addr, /*deallocate=*/true,
                                  &ool);
            msg.ool.push_back(std::move(ool));
        } else {
            msg.body = Bytes(bytes, std::uint8_t{0x5a});
        }
        check(ipc.msgSend(*space, std::move(msg)) == xnu::KERN_SUCCESS,
              "send failed");

        xnu::MachMessage out;
        xnu::RcvOptions opts;
        opts.mapInto = &receiver;
        check(ipc.msgReceive(*space, port, out, opts) ==
                  xnu::KERN_SUCCESS,
              "receive failed");
    });
}

struct Row
{
    Mode mode;
    std::size_t bytes;
    std::uint64_t ns;
};

int
sweepMain()
{
    setLogQuiet(true);

    VmSubsystem probe;
    xnu::MachIpc probe_ipc;
    probe_ipc.setVm(&probe);
    const std::uint64_t threshold = probe_ipc.oolPromoteThreshold();

    const std::size_t sizes[] = {256,       1024,      4096,
                                 16 * 1024, 64 * 1024, 256 * 1024,
                                 1024 * 1024};
    std::vector<Row> rows;
    for (Mode mode : {Mode::Inline, Mode::Auto, Mode::Ool})
        for (std::size_t bytes : sizes)
            rows.push_back({mode, bytes, roundTrip(mode, bytes)});

    auto at = [&](Mode mode, std::size_t bytes) -> std::uint64_t {
        for (const Row &r : rows)
            if (r.mode == mode && r.bytes == bytes)
                return r.ns;
        return 0;
    };

    // --- Gates: the crossover shape.
    // Below the threshold auto IS the inline path.
    for (std::size_t bytes : sizes)
        if (bytes < threshold)
            check(at(Mode::Auto, bytes) == at(Mode::Inline, bytes),
                  "auto != inline below threshold at " +
                      std::to_string(bytes));
    // Past it, auto rides the OOL path: flat in size...
    check(at(Mode::Auto, 1024 * 1024) == at(Mode::Auto, 64 * 1024),
          "promoted cost is not size-independent");
    // ...and strictly below the per-byte copy, by a widening margin.
    check(at(Mode::Auto, 16 * 1024) < at(Mode::Inline, 16 * 1024),
          "no crossover at 16 KB");
    check(10 * at(Mode::Auto, 1024 * 1024) <
              at(Mode::Inline, 1024 * 1024),
          "crossover margin too small at 1 MB");
    // The inline side keeps growing linearly.
    check(at(Mode::Inline, 1024 * 1024) >
              8 * at(Mode::Inline, 64 * 1024) / 2,
          "inline cost is not growing with size");
    // The explicit-OOL path is flat too.
    check(at(Mode::Ool, 1024 * 1024) < 2 * at(Mode::Ool, 4096),
          "explicit OOL cost is not size-independent");

    // --- Fork A/B: COW strictly below eager for a dyld-heavy map
    // (~90 MB resident, the paper's fork dominator).
    constexpr std::uint64_t kPages = 22000;
    VmSubsystem vm;
    CostClock clock;
    CostScope scope(clock);

    VmMap parent;
    parent.bind(&vm);
    parent.addMapping("dylibs", kPages);
    VmMap cow_child, eager_child;
    std::uint64_t cow_ns = measureVirtual(
        [&] { cow_child.forkFrom(parent, /*eager=*/false); });
    std::uint64_t eager_ns = measureVirtual(
        [&] { eager_child.forkFrom(parent, /*eager=*/true); });
    check(cow_ns < eager_ns, "COW fork not below the eager baseline");
    check(eager_ns - cow_ns >= kPages * vm.pageCopyBytesNs() / 2,
          "COW fork win smaller than the deep-copy cost implies");

    // --- Report.
    std::ofstream out("BENCH_ipc_sweep.json");
    out << "{\n  \"threshold_bytes\": " << threshold << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out << "    {\"mode\": \"" << modeName(rows[i].mode)
            << "\", \"bytes\": " << rows[i].bytes
            << ", \"virtual_ns\": " << rows[i].ns << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"fork\": {\"pages\": " << kPages
        << ", \"cow_virtual_ns\": " << cow_ns
        << ", \"eager_virtual_ns\": " << eager_ns << "}\n}\n";
    out.close();

    std::printf("ipc sweep (threshold %" PRIu64 " bytes)\n", threshold);
    for (const Row &r : rows)
        std::printf("  %-6s %8zu B  %10" PRIu64 " ns\n",
                    modeName(r.mode), r.bytes, r.ns);
    std::printf("fork %" PRIu64 " pages: cow %" PRIu64
                " ns, eager %" PRIu64 " ns\n",
                kPages, cow_ns, eager_ns);

    if (g_failures != 0) {
        std::fprintf(stderr, "abl_ipc_sweep: %d failure(s)\n",
                     g_failures);
        return 1;
    }
    std::puts("abl_ipc_sweep: OK");
    return 0;
}

} // namespace
} // namespace cider::bench

int
main()
{
    return cider::bench::sweepMain();
}

/**
 * @file
 * DexJit: method-granularity translation of hot DexLite methods.
 *
 * The interpreter in android/dalvik.cc pays a real host-side tax on
 * every instruction: a switch dispatch, operand re-decode, `locals`
 * vector indexing through DexVal variants, and `std::map` lookups for
 * every native and method call. That tax is the *simulated* story of
 * the paper's Figure 6 — but we only want to pay it in virtual time,
 * not in host time. DexJit translates a method once it has been
 * interpreted a configurable number of times (warm-up) into
 * pre-decoded threaded code:
 *
 *  - operands resolved to register slots (locals and a statically
 *    computed operand-stack layout share one flat frame),
 *  - branch targets resolved to direct instruction indices,
 *  - natives and callee methods resolved to cached pointers,
 *  - stack traffic collapsed by a block-local peephole: pushes fold
 *    into consumer operand slots, constant pushes into immediate
 *    (K-form) binaries, and stores into the producing instruction's
 *    destination,
 *  - per-instruction dispatch cost folded into per-basic-block
 *    pre-charge records,
 *
 * executed by a computed-goto dispatch loop.
 *
 * Determinism contract (DESIGN.md §12): a translated method charges
 * the *same virtual-time cost model* and crosses the *same SchedRail
 * yield points* as the interpreter. The interpreter accumulates
 * dispatch/ALU cost in local variables and flushes to the thread
 * clock only before a CallMethod recursion and at method exit; those
 * accumulators are invisible to virtualNow() until the flush, so the
 * JIT may total them per basic block instead of per instruction and
 * flush identical sums at identical points. Array instructions charge
 * the clock directly and mid-instruction in the interpreter, so the
 * JIT emits them inline in original order (including the original
 * exception ordering around those charges). Virtual time, DalvikStats
 * and SchedRail traces are bit-identical with the JIT on or off.
 *
 * The TranslationCache is system-wide and keyed by (file identity,
 * file version, owning VM, persona, method name). Entries pin a
 * snapshot copy of their DexFile so resolved method pointers can
 * never dangle, and are invalidated on exec/unload (CiderSystem wires
 * kernel hooks to invalidateAll) and on registerNative rebinding
 * (generation stamp). A persona mismatch is a key mismatch: entries
 * are never shared across personas.
 */

#ifndef CIDER_ANDROID_DEXJIT_H
#define CIDER_ANDROID_DEXJIT_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "android/dalvik.h"
#include "binfmt/dex.h"
#include "kernel/types.h"

namespace cider::android {

/**
 * The JIT frame value: a tagged union mirroring DexVal without the
 * variant machinery on the hot path. `arr` is engaged only when
 * tag == Arr; the scalar members live in a plain union.
 */
struct JitVal
{
    enum class Tag : std::uint8_t { I, F, Arr };

    Tag tag = Tag::I;
    union {
        std::int64_t i;
        double f;
    };
    std::shared_ptr<std::vector<std::int64_t>> arr;

    JitVal() : i(0) {}
};

/** Threaded-code opcodes. Order matters: it indexes the label table. */
enum class JOp : std::uint8_t
{
    Block, ///< pre-charge: dst = insn count, imm = ps sum
    MoveI, ///< frame[dst] = imm
    MoveF, ///< frame[dst] = fimm
    Move,  ///< frame[dst] = frame[a]
    SwapSlots, ///< swap(frame[a], frame[b])
    AddI,  ///< frame[dst] = I(frame[a]) + I(frame[b]) — and so on
    SubI,
    MulI,
    DivI,
    ModI,
    AddF,
    SubF,
    MulF,
    DivF,
    LtI,
    LeI,
    EqI,
    AddIK, ///< frame[dst] = I(frame[a]) + imm — K-forms fold a MoveI
    SubIK, ///< (or MoveF) producer into the consuming binary, which
    MulIK, ///< is exact: the producer's slot always carried the
    DivIK, ///< matching tag, so the interpreter's coercion is identity
    ModIK,
    LtIK,
    LeIK,
    EqIK,
    AddFK, ///< frame[dst] = F(frame[a]) + fimm
    SubFK,
    MulFK,
    DivFK,
    JNltI, ///< fused CmpLt+Jz: ip = I(a) < I(b) ? ip+1 : dst
    JNleI,
    JNeqI,
    JNltIK, ///< fused with immediate: ip = I(a) < imm ? ip+1 : dst
    JNleIK,
    JNeqIK,
    Jump,  ///< ip = dst
    JumpZ, ///< if I(frame[a]) == 0 then ip = dst
    CallNat,  ///< dst = arg base slot, a = argc, b = original pc
    CallMeth, ///< dst = arg base slot, a = argc, b = original pc
    RetSlot,  ///< result = frame[a]; ip = end
    RetZero,  ///< result = 0; ip = end
    ArrNewOp, ///< frame[dst] = new array of I(frame[dst]) zeros
    ArrGetOp, ///< frame[dst] = Arr(frame[a])[I(frame[b])]
    ArrSetOp, ///< Arr(frame[a])[I(frame[b])] = I(frame[dst])
    ArrLenOp, ///< frame[dst] = len(Arr(frame[a]))
    End,      ///< flush accumulators, account instructions, return
};

/** One threaded-code instruction, fully pre-decoded. */
struct JitInsn
{
    JOp op = JOp::End;
    std::uint32_t dst = 0; ///< destination slot / jump target / count
    std::uint32_t a = 0;   ///< source slot / argc
    std::uint32_t b = 0;   ///< source slot / original pc
    std::int64_t imm = 0;  ///< integer immediate / block ps sum
    double fimm = 0.0;     ///< float immediate
};

/**
 * Call targets resolved once per decoded method, indexed by original
 * pc. Shared by the interpreter (which otherwise re-resolves through
 * std::map on every call instruction) and by translated code. Null
 * slots mean "unresolved": executing one reproduces the interpreter's
 * unknown-native / unknown-method panic.
 */
struct DecodedMethod
{
    std::vector<const DalvikVm::NativeFn *> natives;
    std::vector<const binfmt::DexMethod *> callees;
};

/** A translated method body. */
struct JitMethod
{
    std::uint32_t nlocals = 0;
    std::uint32_t nslots = 0; ///< nlocals + max operand-stack depth
    std::vector<JitInsn> code;
};

/**
 * One cache entry: warm-up counter, decoded call targets, and (after
 * warm-up) the translated body. The snapshot pins the DexFile content
 * the entry was decoded against, so `DecodedMethod::callees` and
 * `method` stay valid even if the caller's DexFile object dies; a
 * matching (identity, version) key guarantees identical content.
 */
struct MethodEntry
{
    std::shared_ptr<const binfmt::DexFile> snapshot;
    const binfmt::DexMethod *method = nullptr; ///< into snapshot
    DecodedMethod decoded;
    std::unique_ptr<JitMethod> code; ///< null until translated
    bool translationFailed = false;  ///< fall back to interpretation
    std::uint64_t nativesGen = 0;    ///< VM native-table generation
    std::uint64_t runs = 0;          ///< invocations seen (warm-up)
    std::uint64_t interpRuns = 0;
    std::uint64_t jitRuns = 0;
};

/**
 * System-wide translation cache. Thread-safe for lookup/invalidation
 * (entries returned as shared_ptr stay alive across invalidateAll);
 * entry mutation follows the owning VM's single-threaded execution,
 * like the VM's own stats.
 */
class TranslationCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t translations = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t fallbacks = 0; ///< translation failures
    };

    /**
     * Find or create the entry for (@p file, @p method) under
     * @p persona as seen by @p vm. Re-decodes (and drops any
     * translation) when the VM's native table generation moved.
     */
    std::shared_ptr<MethodEntry> acquire(DalvikVm &vm,
                                         const binfmt::DexFile &file,
                                         const binfmt::DexMethod &method,
                                         kernel::Persona persona);

    /** Drop every entry and snapshot (exec / image unload). */
    void invalidateAll(const char *reason);

    void noteTranslation();
    void noteFallback();

    Stats statsSnapshot() const;
    std::size_t entryCount() const;
    std::size_t translatedCount() const;

    /** The /proc/cider/jit text. */
    std::string dump() const;

  private:
    using Key = std::tuple<std::uint64_t, std::uint64_t, const void *,
                           int, std::string>;

    mutable std::mutex mu_;
    std::map<Key, std::shared_ptr<MethodEntry>> entries_;
    /** One pinned content snapshot per (identity, version). */
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::shared_ptr<const binfmt::DexFile>>
        snapshots_;
    Stats stats_;
    std::string lastInvalidation_;
};

/** The translator and threaded-code executor. */
class DexJit
{
  public:
    /**
     * Translate @p method (resolved against @p decoded). Returns null
     * when the method defeats static stack-depth analysis — e.g. a
     * path-dependent operand-stack depth or a statically reachable
     * underflow — in which case the caller falls back to the
     * interpreter permanently (which reproduces the original runtime
     * behaviour, panics included, when such code actually runs).
     * Carries the FaultRail site "dexjit.translate" on its allocation
     * path: an injected fault also returns null.
     */
    static std::unique_ptr<JitMethod>
    translate(const binfmt::DexMethod &method,
              const hw::DeviceProfile &profile);

    /** Run a translated method. Mirrors DalvikVm::execute exactly in
     *  virtual time, stats, and exception behaviour. */
    static DexVal execute(DalvikVm &vm, const binfmt::DexFile &file,
                          MethodEntry &entry, std::vector<DexVal> &args,
                          int depth);
};

} // namespace cider::android

#endif // CIDER_ANDROID_DEXJIT_H

#include "android/dexjit.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <variant>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/fault_rail.h"

namespace cider::android {

using binfmt::DexFile;
using binfmt::DexInsn;
using binfmt::DexMethod;
using binfmt::DexOp;

namespace {

JitVal
fromDex(const DexVal &v)
{
    JitVal out;
    if (const auto *i = std::get_if<std::int64_t>(&v)) {
        out.tag = JitVal::Tag::I;
        out.i = *i;
    } else if (const auto *f = std::get_if<double>(&v)) {
        out.tag = JitVal::Tag::F;
        out.f = *f;
    } else {
        out.tag = JitVal::Tag::Arr;
        out.arr = std::get<
            std::shared_ptr<std::vector<std::int64_t>>>(v);
    }
    return out;
}

DexVal
toDex(const JitVal &v)
{
    switch (v.tag) {
      case JitVal::Tag::I:
        return DexVal{v.i};
      case JitVal::Tag::F:
        return DexVal{v.f};
      case JitVal::Tag::Arr:
        return DexVal{v.arr};
    }
    return DexVal{std::int64_t{0}};
}

/** Mirror of dexI: doubles truncate, arrays coerce to 0. */
std::int64_t
jitI(const JitVal &v)
{
    if (v.tag == JitVal::Tag::I)
        return v.i;
    if (v.tag == JitVal::Tag::F)
        return static_cast<std::int64_t>(v.f);
    return 0;
}

/** Mirror of dexF. */
double
jitF(const JitVal &v)
{
    if (v.tag == JitVal::Tag::F)
        return v.f;
    if (v.tag == JitVal::Tag::I)
        return static_cast<double>(v.i);
    return 0.0;
}

void
setI(JitVal &slot, std::int64_t v)
{
    slot.tag = JitVal::Tag::I;
    slot.i = v;
    if (slot.arr)
        slot.arr.reset();
}

void
setF(JitVal &slot, double v)
{
    slot.tag = JitVal::Tag::F;
    slot.f = v;
    if (slot.arr)
        slot.arr.reset();
}

/**
 * The interpreter reaches its array payload with std::get on a
 * DexVal, which throws std::bad_variant_access for non-arrays. The
 * JIT frame is untyped storage, so reproduce the exact exception by
 * rebuilding the DexVal and performing the same std::get.
 */
void
requireArr(const JitVal &v)
{
    if (v.tag == JitVal::Tag::Arr)
        return;
    DexVal tmp = toDex(v);
    (void)std::get<std::shared_ptr<std::vector<std::int64_t>>>(tmp);
}

/** Virtual picoseconds the interpreter adds for one instruction. */
std::uint64_t
opPs(DexOp op, const hw::DeviceProfile &profile)
{
    const hw::Codegen cg = hw::Codegen::LinuxGcc;
    switch (op) {
      case DexOp::Add:
      case DexOp::Sub:
      case DexOp::CmpLt:
      case DexOp::CmpLe:
      case DexOp::CmpEq:
        return profile.cpuOpPs(hw::CpuOp::IntAdd, cg);
      case DexOp::Mul:
        return profile.cpuOpPs(hw::CpuOp::IntMul, cg);
      case DexOp::Div:
      case DexOp::Mod:
        return profile.cpuOpPs(hw::CpuOp::IntDiv, cg);
      case DexOp::FAdd:
      case DexOp::FSub:
        return profile.cpuOpPs(hw::CpuOp::DoubleAdd, cg);
      case DexOp::FMul:
      case DexOp::FDiv:
        return profile.cpuOpPs(hw::CpuOp::DoubleMul, cg);
      default:
        return 0;
    }
}

/** Stack slots consumed / produced by one instruction. */
struct StackEffect
{
    int need = 0;  ///< minimum operand-stack depth on entry
    int delta = 0; ///< depth change after execution
    bool ok = true;
};

StackEffect
stackEffect(const DexInsn &insn, std::uint32_t nlocals)
{
    StackEffect e;
    switch (insn.op) {
      case DexOp::Nop:
        break;
      case DexOp::ConstI:
      case DexOp::ConstF:
        e.delta = 1;
        break;
      case DexOp::Load:
        if (insn.a < 0 ||
            static_cast<std::uint64_t>(insn.a) >= nlocals)
            e.ok = false;
        e.delta = 1;
        break;
      case DexOp::Store:
        if (insn.a < 0 ||
            static_cast<std::uint64_t>(insn.a) >= nlocals)
            e.ok = false;
        e.need = 1;
        e.delta = -1;
        break;
      case DexOp::Add:
      case DexOp::Sub:
      case DexOp::Mul:
      case DexOp::Div:
      case DexOp::Mod:
      case DexOp::FAdd:
      case DexOp::FSub:
      case DexOp::FMul:
      case DexOp::FDiv:
      case DexOp::CmpLt:
      case DexOp::CmpLe:
      case DexOp::CmpEq:
        e.need = 2;
        e.delta = -1;
        break;
      case DexOp::Jmp:
        break;
      case DexOp::Jz:
        e.need = 1;
        e.delta = -1;
        break;
      case DexOp::Dup:
        e.need = 1;
        e.delta = 1;
        break;
      case DexOp::Drop:
        e.need = 1;
        e.delta = -1;
        break;
      case DexOp::Swap:
        e.need = 2;
        break;
      case DexOp::CallNative:
      case DexOp::CallMethod: {
          int argc = insn.a > 0 ? static_cast<int>(insn.a) : 0;
          e.need = argc;
          e.delta = 1 - argc;
          break;
      }
      case DexOp::Ret:
        // Consumes the top value when present; either way control
        // leaves the method, so no successor sees the depth.
        break;
      case DexOp::ArrNew:
        e.need = 1;
        break;
      case DexOp::ArrGet:
        e.need = 2;
        e.delta = -1;
        break;
      case DexOp::ArrSet:
        e.need = 3;
        e.delta = -3;
        break;
      case DexOp::ArrLen:
        e.need = 1;
        break;
      default:
        // Unknown opcode: the interpreter's switch executes no case —
        // the instruction is counted and dispatch-charged but has no
        // stack effect. Model it the same way.
        break;
    }
    return e;
}

bool
endsBlock(DexOp op)
{
    return op == DexOp::Jmp || op == DexOp::Jz || op == DexOp::Ret ||
           op == DexOp::CallMethod;
}

} // namespace

std::unique_ptr<JitMethod>
DexJit::translate(const DexMethod &method,
                  const hw::DeviceProfile &profile)
{
    // The chaos job arms this site: an injected allocation failure
    // here means the method simply stays interpreted.
    if (CIDER_FAULT_POINT("dexjit.translate"))
        return nullptr;

    const std::vector<DexInsn> &code = method.code;
    const std::size_t n = code.size();
    const std::uint32_t nlocals = method.nlocals;

    // Jump targets resolve exactly as the interpreter's
    // `pc = (size_t)insn.a`: anything outside [0, n) leaves the loop.
    auto target = [n](std::int64_t a) -> std::size_t {
        return (a < 0 || static_cast<std::uint64_t>(a) >= n)
                   ? n
                   : static_cast<std::size_t>(a);
    };

    // Pass 1: abstract interpretation of the operand-stack depth.
    // Every reachable pc must have one consistent entry depth; a
    // merge conflict or statically reachable underflow defeats the
    // register-slot mapping and fails the translation.
    std::vector<int> depth(n, -1);
    std::vector<std::size_t> work;
    int maxDepth = 0;
    if (n > 0) {
        depth[0] = 0;
        work.push_back(0);
    }
    auto flow = [&](std::size_t to, int d) -> bool {
        if (to >= n)
            return true; // exit pseudo-node: any depth
        if (depth[to] == -1) {
            depth[to] = d;
            work.push_back(to);
            return true;
        }
        return depth[to] == d;
    };
    while (!work.empty()) {
        std::size_t pc = work.back();
        work.pop_back();
        const DexInsn &insn = code[pc];
        int d = depth[pc];
        StackEffect e = stackEffect(insn, nlocals);
        if (!e.ok || d < e.need)
            return nullptr;
        int after = d + e.delta;
        if (d > maxDepth)
            maxDepth = d;
        if (after > maxDepth)
            maxDepth = after;
        switch (insn.op) {
          case DexOp::Jmp:
            if (!flow(target(insn.a), after))
                return nullptr;
            break;
          case DexOp::Jz:
            if (!flow(target(insn.a), after) || !flow(pc + 1, after))
                return nullptr;
            break;
          case DexOp::Ret:
            break;
          default:
            if (!flow(pc + 1, after))
                return nullptr;
            break;
        }
    }

    // Pass 2: mark block leaders (jump targets and fall-throughs of
    // block-ending instructions).
    std::vector<char> leader(n + 1, 0);
    if (n > 0)
        leader[0] = 1;
    for (std::size_t pc = 0; pc < n; ++pc) {
        if (depth[pc] < 0)
            continue;
        const DexInsn &insn = code[pc];
        if (insn.op == DexOp::Jmp || insn.op == DexOp::Jz)
            leader[target(insn.a)] = 1;
        if (endsBlock(insn.op) && pc + 1 <= n)
            leader[pc + 1] = 1;
    }

    auto jm = std::make_unique<JitMethod>();
    jm->nlocals = nlocals;
    jm->nslots = nlocals + static_cast<std::uint32_t>(maxDepth);

    // Pass 3: emit threaded code. Each block opens with a Block
    // record accumulating the interpreter's per-instruction dispatch
    // count and ALU picoseconds for every instruction in the block;
    // the executor totals those in local accumulators and flushes
    // them at exactly the interpreter's flush points.
    //
    // A block-local peephole collapses the stack traffic as it goes:
    // a pure push (Move/MoveI/MoveF) is a "producer" whose value a
    // later consumer in the same block can absorb — the consumer
    // reads the push's source slot (or carries the constant as a
    // K-form immediate) and the push is deleted in the compaction
    // pass below. A Store whose value was computed by the immediately
    // preceding instruction instead rewrites that instruction's
    // destination to the local. None of this touches the Block
    // records, so instruction counts and virtual-time charges are
    // exactly the unoptimised ones.
    std::vector<std::uint32_t> indexOfPc(n + 1, 0);
    std::vector<std::pair<std::size_t, std::size_t>> patches;
    std::size_t blockAt = SIZE_MAX;
    auto slot = [nlocals](int d) {
        return nlocals + static_cast<std::uint32_t>(d);
    };

    struct Prod
    {
        std::size_t idx = SIZE_MAX; ///< emission index of the push
        enum Kind : std::uint8_t { Mv, Ki, Kf } kind = Mv;
        std::uint32_t src = 0;
        std::int64_t imm = 0;
        double fimm = 0.0;
    };
    const std::uint32_t nslots = jm->nslots;
    std::vector<Prod> prod(nslots);
    std::vector<std::int64_t> lastRead(nslots, -1);
    std::vector<std::int64_t> lastWrite(nslots, -1);
    std::vector<char> dead;

    auto emit = [&jm, &dead](JOp op) -> JitInsn & {
        jm->code.emplace_back();
        dead.push_back(0);
        jm->code.back().op = op;
        return jm->code.back();
    };
    auto here = [&jm]() -> std::int64_t {
        return static_cast<std::int64_t>(jm->code.size()) - 1;
    };
    auto noteRead = [&](std::uint32_t s) { lastRead[s] = here(); };
    auto noteWrite = [&](std::uint32_t s) {
        lastWrite[s] = here();
        prod[s].idx = SIZE_MAX;
    };
    auto resetBlockState = [&]() {
        for (std::uint32_t s = 0; s < nslots; ++s) {
            prod[s].idx = SIZE_MAX;
            lastRead[s] = -1;
            lastWrite[s] = -1;
        }
    };
    // The live producer of slot y, if its value can be absorbed: the
    // push is the slot's last write, nothing has read the slot since,
    // and (for a copy) the copy's source is unchanged since the push.
    auto foldable = [&](std::uint32_t y) -> Prod * {
        Prod &p = prod[y];
        if (p.idx == SIZE_MAX || blockAt == SIZE_MAX ||
            p.idx <= blockAt || dead[p.idx])
            return nullptr;
        std::int64_t at = static_cast<std::int64_t>(p.idx);
        if (lastWrite[y] != at || lastRead[y] > at)
            return nullptr;
        if (p.kind == Prod::Mv && lastWrite[p.src] > at)
            return nullptr;
        return &p;
    };
    // Absorb slot y's pure-copy producer: the caller reads the
    // returned slot instead, and the copy dies.
    auto foldSlot = [&](std::uint32_t y) -> std::uint32_t {
        Prod *p = foldable(y);
        if (p && p->kind == Prod::Mv) {
            dead[p->idx] = 1;
            std::uint32_t src = p->src;
            p->idx = SIZE_MAX;
            return src;
        }
        return y;
    };
    // Instructions whose destination a Store may redirect into a
    // local: pure value producers that read all sources before
    // writing. Excludes ArrNewOp (dst doubles as the length source)
    // and the calls (dst doubles as the argument base).
    auto dstRewritable = [](JOp op) {
        switch (op) {
          case JOp::MoveI:
          case JOp::MoveF:
          case JOp::Move:
          case JOp::AddI:
          case JOp::SubI:
          case JOp::MulI:
          case JOp::DivI:
          case JOp::ModI:
          case JOp::AddF:
          case JOp::SubF:
          case JOp::MulF:
          case JOp::DivF:
          case JOp::LtI:
          case JOp::LeI:
          case JOp::EqI:
          case JOp::AddIK:
          case JOp::SubIK:
          case JOp::MulIK:
          case JOp::DivIK:
          case JOp::ModIK:
          case JOp::LtIK:
          case JOp::LeIK:
          case JOp::EqIK:
          case JOp::AddFK:
          case JOp::SubFK:
          case JOp::MulFK:
          case JOp::DivFK:
          case JOp::ArrGetOp:
          case JOp::ArrLenOp:
            return true;
          default:
            return false;
        }
    };

    for (std::size_t pc = 0; pc < n; ++pc) {
        if (depth[pc] < 0)
            continue; // unreachable: never executed, never counted
        if (blockAt == SIZE_MAX || leader[pc]) {
            indexOfPc[pc] = static_cast<std::uint32_t>(jm->code.size());
            emit(JOp::Block);
            blockAt = jm->code.size() - 1;
            resetBlockState();
        }
        const DexInsn &insn = code[pc];
        const int d = depth[pc];
        {
            JitInsn &block = jm->code[blockAt];
            block.dst += 1;
            block.imm +=
                static_cast<std::int64_t>(opPs(insn.op, profile));
        }
        switch (insn.op) {
          case DexOp::Nop:
            break;
          case DexOp::ConstI: {
              JitInsn &j = emit(JOp::MoveI);
              j.dst = slot(d);
              j.imm = insn.a;
              noteWrite(j.dst);
              Prod &p = prod[j.dst];
              p.idx = static_cast<std::size_t>(here());
              p.kind = Prod::Ki;
              p.imm = insn.a;
              break;
          }
          case DexOp::ConstF: {
              JitInsn &j = emit(JOp::MoveF);
              j.dst = slot(d);
              j.fimm = insn.f;
              noteWrite(j.dst);
              Prod &p = prod[j.dst];
              p.idx = static_cast<std::size_t>(here());
              p.kind = Prod::Kf;
              p.fimm = insn.f;
              break;
          }
          case DexOp::Load: {
              JitInsn &j = emit(JOp::Move);
              j.dst = slot(d);
              j.a = static_cast<std::uint32_t>(insn.a);
              noteRead(j.a);
              noteWrite(j.dst);
              Prod &p = prod[j.dst];
              p.idx = static_cast<std::size_t>(here());
              p.kind = Prod::Mv;
              p.src = j.a;
              break;
          }
          case DexOp::Store: {
              const std::uint32_t y = slot(d - 1);
              const std::uint32_t L =
                  static_cast<std::uint32_t>(insn.a);
              std::int64_t tail = here();
              if (blockAt != SIZE_MAX &&
                  tail > static_cast<std::int64_t>(blockAt) &&
                  !dead[tail] && jm->code[tail].dst == y &&
                  dstRewritable(jm->code[tail].op)) {
                  jm->code[tail].dst = L;
                  lastWrite[L] = tail;
                  prod[L].idx = SIZE_MAX;
                  prod[y].idx = SIZE_MAX;
              } else if (Prod *p = foldable(y)) {
                  JitInsn &j = emit(p->kind == Prod::Ki   ? JOp::MoveI
                                    : p->kind == Prod::Kf ? JOp::MoveF
                                                          : JOp::Move);
                  j.dst = L;
                  if (p->kind == Prod::Ki) {
                      j.imm = p->imm;
                  } else if (p->kind == Prod::Kf) {
                      j.fimm = p->fimm;
                  } else {
                      j.a = p->src;
                      noteRead(j.a);
                  }
                  dead[p->idx] = 1;
                  p->idx = SIZE_MAX;
                  noteWrite(L);
              } else {
                  JitInsn &j = emit(JOp::Move);
                  j.dst = L;
                  j.a = y;
                  noteRead(y);
                  noteWrite(L);
              }
              break;
          }
          case DexOp::Add:
          case DexOp::Sub:
          case DexOp::Mul:
          case DexOp::Div:
          case DexOp::Mod:
          case DexOp::FAdd:
          case DexOp::FSub:
          case DexOp::FMul:
          case DexOp::FDiv:
          case DexOp::CmpLt:
          case DexOp::CmpLe:
          case DexOp::CmpEq: {
              static const std::map<DexOp, JOp> kBinOp = {
                  {DexOp::Add, JOp::AddI},   {DexOp::Sub, JOp::SubI},
                  {DexOp::Mul, JOp::MulI},   {DexOp::Div, JOp::DivI},
                  {DexOp::Mod, JOp::ModI},   {DexOp::FAdd, JOp::AddF},
                  {DexOp::FSub, JOp::SubF},  {DexOp::FMul, JOp::MulF},
                  {DexOp::FDiv, JOp::DivF},  {DexOp::CmpLt, JOp::LtI},
                  {DexOp::CmpLe, JOp::LeI},  {DexOp::CmpEq, JOp::EqI},
              };
              static const std::map<JOp, JOp> kToK = {
                  {JOp::AddI, JOp::AddIK}, {JOp::SubI, JOp::SubIK},
                  {JOp::MulI, JOp::MulIK}, {JOp::DivI, JOp::DivIK},
                  {JOp::ModI, JOp::ModIK}, {JOp::LtI, JOp::LtIK},
                  {JOp::LeI, JOp::LeIK},   {JOp::EqI, JOp::EqIK},
                  {JOp::AddF, JOp::AddFK}, {JOp::SubF, JOp::SubFK},
                  {JOp::MulF, JOp::MulFK}, {JOp::DivF, JOp::DivFK},
              };
              const JOp base = kBinOp.at(insn.op);
              const bool isFloat =
                  base == JOp::AddF || base == JOp::SubF ||
                  base == JOp::MulF || base == JOp::DivF;
              const std::uint32_t xa = slot(d - 2);
              std::uint32_t bSrc = slot(d - 1);
              bool useK = false;
              std::int64_t kImm = 0;
              double kFimm = 0.0;
              // A constant operand folds into a K-form only when its
              // tag matches the op family (the coercion is identity);
              // a copy operand folds unconditionally.
              if (Prod *p = foldable(bSrc)) {
                  if (!isFloat && p->kind == Prod::Ki) {
                      useK = true;
                      kImm = p->imm;
                      dead[p->idx] = 1;
                      p->idx = SIZE_MAX;
                  } else if (isFloat && p->kind == Prod::Kf) {
                      useK = true;
                      kFimm = p->fimm;
                      dead[p->idx] = 1;
                      p->idx = SIZE_MAX;
                  } else if (p->kind == Prod::Mv) {
                      bSrc = p->src;
                      dead[p->idx] = 1;
                      p->idx = SIZE_MAX;
                  }
              }
              const std::uint32_t aSrc = foldSlot(xa);
              JitInsn &j = emit(useK ? kToK.at(base) : base);
              j.dst = xa;
              j.a = aSrc;
              if (useK) {
                  j.imm = kImm;
                  j.fimm = kFimm;
              } else {
                  j.b = bSrc;
              }
              noteRead(aSrc);
              if (!useK)
                  noteRead(bSrc);
              noteWrite(xa);
              break;
          }
          case DexOp::Jmp: {
              emit(JOp::Jump);
              patches.emplace_back(jm->code.size() - 1,
                                   target(insn.a));
              break;
          }
          case DexOp::Jz: {
              // Fuse a compare feeding straight into the branch: the
              // comparison result slot is popped here and dead after,
              // so the pair becomes one jump-unless instruction.
              const std::uint32_t y = slot(d - 1);
              const std::int64_t tail = here();
              auto fused = [](JOp op) {
                  switch (op) {
                    case JOp::LtI:  return JOp::JNltI;
                    case JOp::LeI:  return JOp::JNleI;
                    case JOp::EqI:  return JOp::JNeqI;
                    case JOp::LtIK: return JOp::JNltIK;
                    case JOp::LeIK: return JOp::JNleIK;
                    case JOp::EqIK: return JOp::JNeqIK;
                    default:        return JOp::End;
                  }
              };
              if (blockAt != SIZE_MAX &&
                  tail > static_cast<std::int64_t>(blockAt) &&
                  !dead[tail] && jm->code[tail].dst == y &&
                  fused(jm->code[tail].op) != JOp::End) {
                  JitInsn &t = jm->code[tail];
                  t.op = fused(t.op);
                  t.dst = 0;
                  prod[y].idx = SIZE_MAX;
                  patches.emplace_back(static_cast<std::size_t>(tail),
                                       target(insn.a));
                  break;
              }
              const std::uint32_t ySrc = foldSlot(y);
              JitInsn &j = emit(JOp::JumpZ);
              j.a = ySrc;
              noteRead(ySrc);
              patches.emplace_back(jm->code.size() - 1,
                                   target(insn.a));
              break;
          }
          case DexOp::Dup: {
              JitInsn &j = emit(JOp::Move);
              j.dst = slot(d);
              j.a = slot(d - 1);
              noteRead(j.a);
              noteWrite(j.dst);
              Prod &p = prod[j.dst];
              p.idx = static_cast<std::size_t>(here());
              p.kind = Prod::Mv;
              p.src = j.a;
              break;
          }
          case DexOp::Drop:
            break;
          case DexOp::Swap: {
              JitInsn &j = emit(JOp::SwapSlots);
              j.a = slot(d - 1);
              j.b = slot(d - 2);
              noteRead(j.a);
              noteRead(j.b);
              noteWrite(j.a);
              noteWrite(j.b);
              break;
          }
          case DexOp::CallNative:
          case DexOp::CallMethod: {
              int argc = insn.a > 0 ? static_cast<int>(insn.a) : 0;
              JitInsn &j = emit(insn.op == DexOp::CallNative
                                    ? JOp::CallNat
                                    : JOp::CallMeth);
              j.dst = slot(d - argc);
              j.a = static_cast<std::uint32_t>(argc);
              j.b = static_cast<std::uint32_t>(pc);
              j.imm = static_cast<std::int64_t>(insn.sidx);
              for (int k = 0; k < argc; ++k)
                  noteRead(j.dst + static_cast<std::uint32_t>(k));
              noteWrite(j.dst);
              break;
          }
          case DexOp::Ret: {
              if (d > 0) {
                  const std::uint32_t ySrc = foldSlot(slot(d - 1));
                  JitInsn &j = emit(JOp::RetSlot);
                  j.a = ySrc;
                  noteRead(ySrc);
              } else {
                  emit(JOp::RetZero);
              }
              break;
          }
          case DexOp::ArrNew: {
              JitInsn &j = emit(JOp::ArrNewOp);
              j.dst = slot(d - 1);
              noteRead(j.dst);
              noteWrite(j.dst);
              break;
          }
          case DexOp::ArrGet: {
              const std::uint32_t bSrc = foldSlot(slot(d - 1));
              const std::uint32_t aSrc = foldSlot(slot(d - 2));
              JitInsn &j = emit(JOp::ArrGetOp);
              j.dst = slot(d - 2);
              j.a = aSrc;
              j.b = bSrc;
              noteRead(aSrc);
              noteRead(bSrc);
              noteWrite(j.dst);
              break;
          }
          case DexOp::ArrSet: {
              const std::uint32_t vSrc = foldSlot(slot(d - 1));
              const std::uint32_t bSrc = foldSlot(slot(d - 2));
              const std::uint32_t aSrc = foldSlot(slot(d - 3));
              JitInsn &j = emit(JOp::ArrSetOp);
              j.a = aSrc;
              j.b = bSrc;
              j.dst = vSrc;
              noteRead(aSrc);
              noteRead(bSrc);
              noteRead(vSrc);
              break;
          }
          case DexOp::ArrLen: {
              const std::uint32_t aSrc = foldSlot(slot(d - 1));
              JitInsn &j = emit(JOp::ArrLenOp);
              j.dst = slot(d - 1);
              j.a = aSrc;
              noteRead(aSrc);
              noteWrite(j.dst);
              break;
          }
          default:
            // Unknown opcode: counted by the block, no effect.
            break;
        }
        if (endsBlock(insn.op))
            blockAt = SIZE_MAX;
    }
    indexOfPc[n] = static_cast<std::uint32_t>(jm->code.size());
    emit(JOp::End);

    // Compaction: delete the absorbed pushes. Only non-leader
    // instructions die, so remapping the leader table and the patch
    // positions is a prefix-sum walk.
    std::vector<std::uint32_t> remap(jm->code.size() + 1, 0);
    std::uint32_t live = 0;
    for (std::size_t i = 0; i < jm->code.size(); ++i) {
        remap[i] = live;
        if (!dead[i])
            ++live;
    }
    remap[jm->code.size()] = live;
    if (live != jm->code.size()) {
        std::vector<JitInsn> packed;
        packed.reserve(live);
        for (std::size_t i = 0; i < jm->code.size(); ++i)
            if (!dead[i])
                packed.push_back(jm->code[i]);
        jm->code = std::move(packed);
    }
    for (const auto &[at, pc] : patches)
        jm->code[remap[at]].dst = remap[indexOfPc[pc]];
    return jm;
}

DexVal
DexJit::execute(DalvikVm &vm, const DexFile &file, MethodEntry &entry,
                std::vector<DexVal> &args, int depth)
{
    const JitMethod &jm = *entry.code;
    const hw::DeviceProfile &profile = vm.profile_;
    const std::uint64_t dispatchNs = profile.dalvikDispatchNs;
    // Hoist the thread-local clock lookup and the array charge
    // constants: the installed clock cannot change while this frame
    // runs (natives and callees restore any scope they install), and
    // charging it directly is observably identical to free charge().
    CostClock *const clk = CostClock::current();
    const std::uint64_t arrReadNs = 8 * profile.memReadBytePs / 1000;
    const std::uint64_t arrWriteNs = 8 * profile.memWriteBytePs / 1000;
    auto chargeNow = [clk](std::uint64_t ns) {
        if (clk)
            clk->charge(ns);
    };

    std::vector<JitVal> frame(jm.nslots);
    for (std::size_t i = 0; i < args.size() && i < jm.nlocals; ++i)
        frame[i] = fromDex(args[i]);

    // The interpreter's dispatch_ns_acc / ps_acc live in locals and
    // reach the thread clock only at flush points, so accumulating
    // them per basic block here produces bit-identical charges — and
    // identical losses when an exception skips the final flush.
    std::uint64_t executed = 0;
    std::uint64_t flushedAt = 0;
    std::uint64_t ps = 0;
    auto flush = [&]() {
        chargeNow((executed - flushedAt) * dispatchNs + ps / 1000);
        flushedAt = executed;
        ps = 0;
    };

    JitVal result;
    const JitInsn *code = jm.code.data();
    std::size_t ip = 0;

#if defined(__GNUC__) || defined(__clang__)
#define CIDER_JIT_THREADED 1
#endif

#ifdef CIDER_JIT_THREADED
    // Label table indexed by JOp — order must match the enum.
    static const void *kLabels[] = {
        &&L_Block,    &&L_MoveI,    &&L_MoveF,    &&L_Move,
        &&L_SwapSlots, &&L_AddI,    &&L_SubI,     &&L_MulI,
        &&L_DivI,     &&L_ModI,     &&L_AddF,     &&L_SubF,
        &&L_MulF,     &&L_DivF,     &&L_LtI,      &&L_LeI,
        &&L_EqI,      &&L_AddIK,    &&L_SubIK,    &&L_MulIK,
        &&L_DivIK,    &&L_ModIK,    &&L_LtIK,     &&L_LeIK,
        &&L_EqIK,     &&L_AddFK,    &&L_SubFK,    &&L_MulFK,
        &&L_DivFK,    &&L_JNltI,    &&L_JNleI,    &&L_JNeqI,
        &&L_JNltIK,   &&L_JNleIK,   &&L_JNeqIK,
        &&L_Jump,     &&L_JumpZ,    &&L_CallNat,
        &&L_CallMeth, &&L_RetSlot,  &&L_RetZero,  &&L_ArrNewOp,
        &&L_ArrGetOp, &&L_ArrSetOp, &&L_ArrLenOp, &&L_End,
    };
#define CASE(name) L_##name
#define DISPATCH() goto *kLabels[static_cast<int>(code[ip].op)]
    DISPATCH();
#else
#define CASE(name) case JOp::name
#define DISPATCH() break
    for (;;) {
        switch (code[ip].op) {
#endif

    CASE(Block): {
        const JitInsn &I = code[ip];
        executed += I.dst;
        ps += static_cast<std::uint64_t>(I.imm);
        ++ip;
    }
        DISPATCH();

    CASE(MoveI): {
        const JitInsn &I = code[ip];
        setI(frame[I.dst], I.imm);
        ++ip;
    }
        DISPATCH();

    CASE(MoveF): {
        const JitInsn &I = code[ip];
        setF(frame[I.dst], I.fimm);
        ++ip;
    }
        DISPATCH();

    CASE(Move): {
        const JitInsn &I = code[ip];
        frame[I.dst] = frame[I.a];
        ++ip;
    }
        DISPATCH();

    CASE(SwapSlots): {
        const JitInsn &I = code[ip];
        std::swap(frame[I.a], frame[I.b]);
        ++ip;
    }
        DISPATCH();

#define CIDER_JIT_BIN_I(name, expr)                                         \
    CASE(name): {                                                           \
        const JitInsn &I = code[ip];                                        \
        const std::int64_t av = jitI(frame[I.a]);                           \
        const std::int64_t bv = jitI(frame[I.b]);                           \
        setI(frame[I.dst], (expr));                                         \
        ++ip;                                                               \
    }                                                                       \
        DISPATCH()

#define CIDER_JIT_BIN_F(name, expr)                                         \
    CASE(name): {                                                           \
        const JitInsn &I = code[ip];                                        \
        const double av = jitF(frame[I.a]);                                 \
        const double bv = jitF(frame[I.b]);                                 \
        setF(frame[I.dst], (expr));                                         \
        ++ip;                                                               \
    }                                                                       \
        DISPATCH()

#define CIDER_JIT_BIN_IK(name, expr)                                        \
    CASE(name): {                                                           \
        const JitInsn &I = code[ip];                                        \
        const std::int64_t av = jitI(frame[I.a]);                           \
        const std::int64_t bv = I.imm;                                      \
        setI(frame[I.dst], (expr));                                         \
        ++ip;                                                               \
    }                                                                       \
        DISPATCH()

#define CIDER_JIT_BIN_FK(name, expr)                                        \
    CASE(name): {                                                           \
        const JitInsn &I = code[ip];                                        \
        const double av = jitF(frame[I.a]);                                 \
        const double bv = I.fimm;                                           \
        setF(frame[I.dst], (expr));                                         \
        ++ip;                                                               \
    }                                                                       \
        DISPATCH()

    CIDER_JIT_BIN_I(AddI, av + bv);
    CIDER_JIT_BIN_I(SubI, av - bv);
    CIDER_JIT_BIN_I(MulI, av * bv);
    CIDER_JIT_BIN_I(DivI, bv == 0 ? 0 : av / bv);
    CIDER_JIT_BIN_I(ModI, bv == 0 ? 0 : av % bv);
    CIDER_JIT_BIN_F(AddF, av + bv);
    CIDER_JIT_BIN_F(SubF, av - bv);
    CIDER_JIT_BIN_F(MulF, av * bv);
    CIDER_JIT_BIN_F(DivF, bv == 0.0 ? 0.0 : av / bv);
    CIDER_JIT_BIN_I(LtI, static_cast<std::int64_t>(av < bv));
    CIDER_JIT_BIN_I(LeI, static_cast<std::int64_t>(av <= bv));
    CIDER_JIT_BIN_I(EqI, static_cast<std::int64_t>(av == bv));
    CIDER_JIT_BIN_IK(AddIK, av + bv);
    CIDER_JIT_BIN_IK(SubIK, av - bv);
    CIDER_JIT_BIN_IK(MulIK, av * bv);
    CIDER_JIT_BIN_IK(DivIK, bv == 0 ? 0 : av / bv);
    CIDER_JIT_BIN_IK(ModIK, bv == 0 ? 0 : av % bv);
    CIDER_JIT_BIN_IK(LtIK, static_cast<std::int64_t>(av < bv));
    CIDER_JIT_BIN_IK(LeIK, static_cast<std::int64_t>(av <= bv));
    CIDER_JIT_BIN_IK(EqIK, static_cast<std::int64_t>(av == bv));
    CIDER_JIT_BIN_FK(AddFK, av + bv);
    CIDER_JIT_BIN_FK(SubFK, av - bv);
    CIDER_JIT_BIN_FK(MulFK, av * bv);
    CIDER_JIT_BIN_FK(DivFK, bv == 0.0 ? 0.0 : av / bv);

#define CIDER_JIT_CMPJ(name, cond)                                          \
    CASE(name): {                                                           \
        const JitInsn &I = code[ip];                                        \
        const std::int64_t av = jitI(frame[I.a]);                           \
        const std::int64_t bv = jitI(frame[I.b]);                           \
        ip = (cond) ? ip + 1 : I.dst;                                       \
    }                                                                       \
        DISPATCH()

#define CIDER_JIT_CMPJK(name, cond)                                         \
    CASE(name): {                                                           \
        const JitInsn &I = code[ip];                                        \
        const std::int64_t av = jitI(frame[I.a]);                           \
        const std::int64_t bv = I.imm;                                      \
        ip = (cond) ? ip + 1 : I.dst;                                       \
    }                                                                       \
        DISPATCH()

    CIDER_JIT_CMPJ(JNltI, av < bv);
    CIDER_JIT_CMPJ(JNleI, av <= bv);
    CIDER_JIT_CMPJ(JNeqI, av == bv);
    CIDER_JIT_CMPJK(JNltIK, av < bv);
    CIDER_JIT_CMPJK(JNleIK, av <= bv);
    CIDER_JIT_CMPJK(JNeqIK, av == bv);

    CASE(Jump): {
        ip = code[ip].dst;
    }
        DISPATCH();

    CASE(JumpZ): {
        const JitInsn &I = code[ip];
        ip = jitI(frame[I.a]) == 0 ? I.dst : ip + 1;
    }
        DISPATCH();

    CASE(CallNat): {
        const JitInsn &I = code[ip];
        const DalvikVm::NativeFn *fn = entry.decoded.natives[I.b];
        if (!fn)
            // invariant-only: natives are registered by in-tree setup.
            cider_panic("dalvik: unknown native ",
                        entry.snapshot->string(
                            static_cast<std::uint32_t>(I.imm)));
        std::vector<DexVal> nargs;
        nargs.reserve(I.a);
        for (std::uint32_t k = 0; k < I.a; ++k)
            nargs.push_back(toDex(frame[I.dst + k]));
        ++vm.stats_.nativeCalls;
        frame[I.dst] = fromDex((*fn)(nargs));
        ++ip;
    }
        DISPATCH();

    CASE(CallMeth): {
        const JitInsn &I = code[ip];
        const DexMethod *callee = entry.decoded.callees[I.b];
        if (!callee)
            // invariant-only: parseDex validated the callee index.
            cider_panic("dalvik: unknown method ",
                        entry.snapshot->string(
                            static_cast<std::uint32_t>(I.imm)));
        std::vector<DexVal> cargs;
        cargs.reserve(I.a);
        for (std::uint32_t k = 0; k < I.a; ++k)
            cargs.push_back(toDex(frame[I.dst + k]));
        ++vm.stats_.methodCalls;
        // Same flush point as the interpreter: attribution stays
        // ordered across the recursion.
        flush();
        frame[I.dst] = fromDex(vm.invoke(file, *callee, cargs, depth + 1));
        ++ip;
    }
        DISPATCH();

    CASE(RetSlot): {
        result = frame[code[ip].a];
        goto L_done;
    }

    CASE(RetZero): {
        result = JitVal{};
        goto L_done;
    }

    CASE(ArrNewOp): {
        const JitInsn &I = code[ip];
        const std::int64_t nn = jitI(frame[I.dst]);
        chargeNow(static_cast<std::uint64_t>(nn) * 8 *
                  profile.memWriteBytePs / 1000);
        JitVal &s = frame[I.dst];
        s.tag = JitVal::Tag::Arr;
        s.arr = std::make_shared<std::vector<std::int64_t>>(
            static_cast<std::size_t>(nn), 0);
        ++ip;
    }
        DISPATCH();

    CASE(ArrGetOp): {
        const JitInsn &I = code[ip];
        JitVal &av = frame[I.a];
        const std::int64_t idx = jitI(frame[I.b]);
        requireArr(av);
        chargeNow(arrReadNs);
        const std::int64_t v =
            av.arr->at(static_cast<std::size_t>(idx));
        setI(frame[I.dst], v);
        ++ip;
    }
        DISPATCH();

    CASE(ArrSetOp): {
        const JitInsn &I = code[ip];
        JitVal &av = frame[I.a];
        const std::int64_t idx = jitI(frame[I.b]);
        const std::int64_t val = jitI(frame[I.dst]);
        requireArr(av);
        chargeNow(arrWriteNs);
        av.arr->at(static_cast<std::size_t>(idx)) = val;
        ++ip;
    }
        DISPATCH();

    CASE(ArrLenOp): {
        const JitInsn &I = code[ip];
        JitVal &av = frame[I.a];
        requireArr(av);
        const std::int64_t len =
            static_cast<std::int64_t>(av.arr->size());
        setI(frame[I.dst], len);
        ++ip;
    }
        DISPATCH();

    CASE(End):
        goto L_done;

#ifndef CIDER_JIT_THREADED
        }
    }
#endif

L_done:
    flush();
    vm.stats_.instructions += executed;
    return toDex(result);

#undef CIDER_JIT_BIN_I
#undef CIDER_JIT_BIN_F
#undef CIDER_JIT_BIN_IK
#undef CIDER_JIT_BIN_FK
#undef CIDER_JIT_CMPJ
#undef CIDER_JIT_CMPJK
#undef CASE
#undef DISPATCH
}

namespace {

/** Resolve every call instruction of @p e against @p vm's native
 *  table and the snapshot's method table. */
void
decodeInto(DalvikVm &vm, MethodEntry &e)
{
    const std::vector<DexInsn> &code = e.method->code;
    const DexFile &snap = *e.snapshot;
    e.decoded.natives.assign(code.size(), nullptr);
    e.decoded.callees.assign(code.size(), nullptr);
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const DexInsn &insn = code[pc];
        if (insn.op == DexOp::CallNative)
            e.decoded.natives[pc] =
                vm.findNative(snap.string(insn.sidx));
        else if (insn.op == DexOp::CallMethod)
            e.decoded.callees[pc] = snap.method(snap.string(insn.sidx));
    }
}

} // namespace

std::shared_ptr<MethodEntry>
TranslationCache::acquire(DalvikVm &vm, const DexFile &file,
                          const DexMethod &method,
                          kernel::Persona persona)
{
    std::lock_guard<std::mutex> lock(mu_);
    Key key{file.identity, file.version, &vm,
            static_cast<int>(persona), method.name};
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        MethodEntry &e = *it->second;
        if (e.nativesGen != vm.nativesGeneration()) {
            // registerNative rebinding: resolved pointers may be
            // stale (or newly resolvable); drop the translation and
            // re-decode.
            ++stats_.invalidations;
            lastInvalidation_ = "native-rebind";
            e.code.reset();
            e.translationFailed = false;
            decodeInto(vm, e);
            e.nativesGen = vm.nativesGeneration();
        } else {
            ++stats_.hits;
        }
        return it->second;
    }

    ++stats_.misses;
    auto snapKey = std::make_pair(file.identity, file.version);
    std::shared_ptr<const DexFile> snap;
    auto sit = snapshots_.find(snapKey);
    if (sit != snapshots_.end()) {
        snap = sit->second;
    } else {
        snap = std::make_shared<DexFile>(file);
        snapshots_[snapKey] = snap;
    }
    const DexMethod *m = snap->method(method.name);
    if (!m)
        // The method object is not part of the file it claims to
        // belong to; nothing safe to cache.
        return nullptr;
    auto e = std::make_shared<MethodEntry>();
    e->snapshot = snap;
    e->method = m;
    e->nativesGen = vm.nativesGeneration();
    decodeInto(vm, *e);
    entries_[key] = e;
    return e;
}

void
TranslationCache::invalidateAll(const char *reason)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.invalidations += entries_.size();
    entries_.clear();
    snapshots_.clear();
    lastInvalidation_ = reason ? reason : "unknown";
}

void
TranslationCache::noteTranslation()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.translations;
}

void
TranslationCache::noteFallback()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fallbacks;
}

TranslationCache::Stats
TranslationCache::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
TranslationCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::size_t
TranslationCache::translatedCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &[key, e] : entries_)
        if (e->code)
            ++n;
    return n;
}

std::string
TranslationCache::dump() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "jit: translation cache\n";
    char line[256];
    std::size_t translated = 0;
    for (const auto &[key, e] : entries_)
        if (e->code)
            ++translated;
    std::snprintf(line, sizeof line,
                  "entries %zu translated %zu\n"
                  "hits %llu misses %llu translations %llu "
                  "invalidations %llu fallbacks %llu\n",
                  entries_.size(), translated,
                  static_cast<unsigned long long>(stats_.hits),
                  static_cast<unsigned long long>(stats_.misses),
                  static_cast<unsigned long long>(stats_.translations),
                  static_cast<unsigned long long>(stats_.invalidations),
                  static_cast<unsigned long long>(stats_.fallbacks));
    out += line;
    if (!lastInvalidation_.empty())
        out += "last invalidation: " + lastInvalidation_ + "\n";
    for (const auto &[key, e] : entries_) {
        const auto &[identity, version, vm, persona, name] = key;
        (void)vm;
        const char *state = e->code              ? "translated"
                            : e->translationFailed ? "fallback"
                                                   : "warming";
        std::snprintf(
            line, sizeof line,
            "%s#%llu.%llu %s %s: runs %llu interp %llu jit %llu %s\n",
            e->snapshot ? e->snapshot->name.c_str() : "?",
            static_cast<unsigned long long>(identity),
            static_cast<unsigned long long>(version),
            kernel::personaName(static_cast<kernel::Persona>(persona)),
            name.c_str(),
            static_cast<unsigned long long>(e->runs),
            static_cast<unsigned long long>(e->interpRuns),
            static_cast<unsigned long long>(e->jitRuns), state);
        out += line;
    }
    return out;
}

} // namespace cider::android

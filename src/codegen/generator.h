#ifndef SWOLE_CODEGEN_GENERATOR_H_
#define SWOLE_CODEGEN_GENERATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "plan/plan.h"
#include "storage/types.h"
#include "strategies/strategy.h"

// Source-level code generation: given a plan and a strategy, emit a
// complete, self-contained C++ translation unit whose loops are exactly
// the paper's generated-code shapes:
//
//   data-centric  -> one fused loop with an if-chain (Fig. 1 top)
//   hybrid        -> tiled prepass + no-branch selection vector (Fig. 1 mid)
//   swole         -> value masking (Fig. 3), key masking (Fig. 4 bottom),
//                    positional bitmaps for joins (§III-D)
//
// The generated unit includes only the header-only runtime
// (exec/kernels.h, exec/hash_table.h, storage/bitmap.h) — the same
// "library code" the engines use — and exports six extern "C" entry
// points forming a morsel-driven ABI (build shared state, create
// per-thread state, process one morsel, merge states, emit output,
// plus a governance cancel-check probe).
// codegen/jit.h compiles it with the system compiler, dlopens it, and
// drives the morsel entry under exec/scheduler.h's work-stealing
// scheduler.
//
// Supported plan subset: fact scan + filter (comparisons, AND/OR/NOT,
// BETWEEN, IN over integer columns, LIKE over raw-text columns), existence
// dimension joins (single level), scalar or grouped sum/count aggregation.
// Dictionary LIKE, column paths, reverse/disjunctive joins return
// Unimplemented — the interpreted engines cover those.
//
// Raw-text LIKE conjuncts honor the access-aware placement decision
// (cost/string_placement.h): pushed conjuncts run in the scan prepass via
// the tile kernel, pulled ones refine the mask / selection vector after
// every other qualification. Placement changes the emitted source (and
// thus the kernel-cache key), never the results.

namespace swole::codegen {

/// ABI between the host and a generated kernel (v6). All column pointers
/// are raw physical arrays in slot order (see GeneratedKernel::column_slots).
struct KernelIO {
  const void* const* columns = nullptr;   // one per column slot
  const int64_t* table_rows = nullptr;    // one per table slot
  const uint32_t* const* fk_offsets = nullptr;  // one per dim slot
  int64_t* scalar_out = nullptr;          // naggs values (scalar plans)
  void* group_ctx = nullptr;              // grouped plans: emit callback
  void (*emit_group)(void* ctx, int64_t key, const int64_t* aggs) = nullptr;
  // ---- Governance (ABI v3) ----
  // Optional query-lifecycle hooks (exec/query_context.h). `mem_charge`
  // follows common/query_abort.h's MemHookFn contract: the kernel's hash
  // tables and bitmaps ask permission before growing (nonzero return ->
  // the structure throws QueryAbort instead of allocating). `cancel_check`
  // is polled at the top of every morsel; nonzero (an AbortReason) makes
  // the morsel return without touching its rows. Both may be null — the
  // generated code always carries the fields so kernel source (and thus
  // cache keys) is identical for governed and ungoverned runs.
  void* governor = nullptr;
  int (*mem_charge)(void* ctx, int64_t delta, const char* site) = nullptr;
  int (*cancel_check)(void* ctx) = nullptr;
  // ---- Raw text columns (ABI v5) ----
  // One entry per text slot (GeneratedKernel::text_slots_table/column):
  // the StringColumn's byte arena and its rows+1 offset array. Plans
  // without raw-text LIKE predicates have zero text slots and never read
  // these; the fields are always emitted so the struct layout (and thus
  // cache keys) is placement- and plan-independent.
  const void* const* text_bytes = nullptr;
  const uint32_t* const* text_offsets = nullptr;
};

/// Names of the entry points exported by every generated unit.
/// The host drives them as:
///
///   void* shared = swole_kernel_build(io);             // dim structures
///   void* state[w] = swole_kernel_thread_state(io);    // one per worker
///   swole_kernel_morsel(io, shared, state[w], b, e);   // [b, e) fact rows
///   swole_kernel_merge(state[0], state[w]);            // w = 1.. in order
///   swole_kernel_finish(io, shared, state[0]);         // emit + free
///
/// Morsel boundaries must be tile-aligned (GeneratedKernel::tile_size);
/// merge deletes its `from` argument, finish deletes `state` and `shared`.
inline constexpr char kBuildEntryPoint[] = "swole_kernel_build";
inline constexpr char kThreadStateEntryPoint[] = "swole_kernel_thread_state";
inline constexpr char kMorselEntryPoint[] = "swole_kernel_morsel";
inline constexpr char kMergeEntryPoint[] = "swole_kernel_merge";
inline constexpr char kFinishEntryPoint[] = "swole_kernel_finish";
/// Sixth entry point (ABI v3): returns KernelIO::cancel_check(governor),
/// or 0 when the hook is unset. Lets the host confirm a loaded kernel
/// carries the governance ABI; disk-cached objects from older builds miss
/// this symbol and are recompiled.
inline constexpr char kCancelCheckEntryPoint[] = "swole_kernel_cancel_check";

struct ColumnSlot {
  std::string table;
  std::string column;
  PhysicalType physical;
};

struct GeneratedKernel {
  std::string source;                  // the full translation unit
  std::vector<ColumnSlot> column_slots;
  std::vector<std::string> table_slots;     // tables, slot order
  std::vector<std::string> fk_slots_table;  // fk owner table per dim slot
  std::vector<std::string> fk_slots_column; // fk column per dim slot
  // Referenced (primary-key) table per dim slot; Run validates that the
  // bound fk index is sized for the owner and referenced tables it is given,
  // so stale indexes can't send generated code out of bounds.
  std::vector<std::string> fk_slots_ref_table;
  // Raw-text slots (ABI v5): table/column per text slot, in the order the
  // kernel expects KernelIO::text_bytes / text_offsets. The bound column
  // must be logical kText stored raw (Column::text() != nullptr).
  std::vector<std::string> text_slots_table;
  std::vector<std::string> text_slots_column;
  int num_aggs = 0;
  bool grouped = false;
  // The fact table driving the morsel loop, and the tile size the emitted
  // loops assume: morsel boundaries handed to swole_kernel_morsel must be
  // multiples of it (exec::DefaultMorselSize guarantees this).
  std::string fact_table;
  int64_t tile_size = 1024;
};

struct GeneratorOptions {
  StrategyKind strategy = StrategyKind::kSwole;
  int64_t tile_size = 1024;
  // SWOLE technique selection (the engine's cost-model decision, made
  // explicit so generated code is deterministic and inspectable).
  AggChoice agg_choice = AggChoice::kValueMasking;
  int64_t group_capacity_hint = 1024;
  // Worker threads for CompiledKernel::Run / ExecuteWithFallback. Does NOT
  // affect the emitted source (the morsel ABI is thread-count agnostic, so
  // kernel-cache keys stay stable across thread counts); 0 defers to
  // SWOLE_THREADS.
  int num_threads = 0;
  // Per-query trace (obs/trace.h) for ExecuteWithFallback / CompiledKernel
  // runs. Like num_threads, this NEVER affects the emitted source — span
  // recording happens entirely on the host side of the morsel ABI, so
  // kernel-cache keys are identical for traced and untraced runs. Null
  // disables recording; SWOLE_TRACE=1 enables an internally owned trace.
  obs::QueryTrace* trace = nullptr;
  // Concurrent serving (exec/admission.h, exec/scheduler.h): host-side
  // only, never part of the emitted source or the kernel-cache key.
  // Scheduler priority of this query's morsel jobs in the shared pool.
  int priority = 0;
  // Tenant identity for per-tenant admission caps; empty = default tenant.
  std::string tenant;
};

/// Emits the translation unit for `plan`, or Unimplemented if the plan
/// uses features outside the codegen subset.
Result<GeneratedKernel> GenerateKernel(const QueryPlan& plan,
                                       const Catalog& catalog,
                                       const GeneratorOptions& options);

}  // namespace swole::codegen

#endif  // SWOLE_CODEGEN_GENERATOR_H_

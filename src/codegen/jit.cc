#include "codegen/jit.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "codegen/corpus.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/scratch_dir.h"
#include "common/string_util.h"
#include "common/subprocess.h"
#include "engine/reference_engine.h"
#include "exec/query_context.h"
#include "exec/scheduler.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "strategies/strategy.h"

// The include root for the header-only runtime the generated code uses,
// injected by the build (src/CMakeLists.txt).
#ifndef SWOLE_SOURCE_DIR
#define SWOLE_SOURCE_DIR "."
#endif

namespace swole::codegen {

SWOLE_REGISTER_FAULT_SITE("jit_workdir",
                          "JIT work-dir creation (mkdtemp)")
SWOLE_REGISTER_FAULT_SITE("jit_source_write",
                          "generated kernel source write")
SWOLE_REGISTER_FAULT_SITE("jit_compile", "kernel compile subprocess")

namespace {

std::atomic<int64_t> g_kernel_counter{0};

// The work dir for one compile is a ScratchDir (common/scratch_dir.h): the
// same base-resolution policy (SWOLE_JIT_TMPDIR > TMPDIR > /tmp, with the
// exec-unsafe refusal — the path crosses the compiler's exec boundary) and
// the same cleanup-on-every-exit-path guarantee the spill subsystem uses.
// A caller-provided work_dir is adopted: tracked artifacts are removed on
// teardown, but the directory itself is left alone.
Result<ScratchDir> MakeWorkDir(const JitOptions& options) {
  SWOLE_FAULT_POINT("jit_workdir",
                    Status::IOError("injected fault: jit_workdir"));
  if (!options.work_dir.empty()) return ScratchDir::Adopt(options.work_dir);
  Result<ScratchDir> dir = ScratchDir::CreateUnder(
      ScratchDir::ResolveBase("SWOLE_JIT_TMPDIR", "JIT tmp"), "swole_jit_");
  if (!dir.ok()) {
    return Status::IOError(StringFormat(
        "%s (override with SWOLE_JIT_TMPDIR)", dir.status().message().c_str()));
  }
  return dir;
}

std::string ResolvedCompiler(const JitOptions& options) {
  return GetEnvString("SWOLE_CXX", options.compiler);
}

// The flag configuration identifying a compile, independent of which ladder
// rung ends up succeeding — so a query whose first compile degraded to -O2
// still hits the cache the next time around.
std::string FlagConfig(const JitOptions& options) {
  std::vector<std::string> rungs = {options.extra_flags};
  rungs.insert(rungs.end(), options.degrade_flags.begin(),
               options.degrade_flags.end());
  return StrJoin(rungs, "|");
}

std::vector<std::string> SplitFlags(const std::string& flags) {
  std::vector<std::string> tokens;
  for (std::string& token : StrSplit(flags, ' ')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  return tokens;
}

Status ValidateExecToken(const char* what, const std::string& value) {
  if (!IsExecSafe(value)) {
    return Status::InvalidArgument(StringFormat(
        "JitOptions: %s \"%s\" contains characters unsafe for exec "
        "(whitespace/quotes/shell metacharacters)",
        what, value.c_str()));
  }
  return Status::OK();
}

}  // namespace

Status JitOptions::Validate() const {
  SWOLE_RETURN_NOT_OK(ValidateExecToken("compiler", compiler));
  for (const std::string& token : SplitFlags(extra_flags)) {
    SWOLE_RETURN_NOT_OK(ValidateExecToken("flag", token));
  }
  for (const std::string& rung : degrade_flags) {
    for (const std::string& token : SplitFlags(rung)) {
      SWOLE_RETURN_NOT_OK(ValidateExecToken("flag", token));
    }
  }
  if (!work_dir.empty()) {
    SWOLE_RETURN_NOT_OK(ValidateExecToken("work_dir", work_dir));
  }
  if (!disk_cache_dir.empty()) {
    SWOLE_RETURN_NOT_OK(ValidateExecToken("disk_cache_dir", disk_cache_dir));
  }
  if (compile_timeout_ms < 0) {
    return Status::InvalidArgument("JitOptions: negative compile_timeout_ms");
  }
  return Status::OK();
}

JitStats::JitStats()
    : compiles(obs::MetricsRegistry::Global().GetCounter("jit.compiles")),
      compile_failures(
          obs::MetricsRegistry::Global().GetCounter("jit.compile_failures")),
      retries(obs::MetricsRegistry::Global().GetCounter("jit.retries")),
      timeouts(obs::MetricsRegistry::Global().GetCounter("jit.timeouts")),
      cache_hits_memory(
          obs::MetricsRegistry::Global().GetCounter("jit.cache_hits_memory")),
      cache_hits_disk(
          obs::MetricsRegistry::Global().GetCounter("jit.cache_hits_disk")),
      fallbacks(obs::MetricsRegistry::Global().GetCounter("jit.fallbacks")),
      compile_ms(obs::MetricsRegistry::Global().GetCounter("jit.compile_ms")) {
}

JitStats::Snapshot JitStats::snapshot() const {
  Snapshot s;
  s.compiles = compiles.value();
  s.compile_failures = compile_failures.value();
  s.retries = retries.value();
  s.timeouts = timeouts.value();
  s.cache_hits_memory = cache_hits_memory.value();
  s.cache_hits_disk = cache_hits_disk.value();
  s.fallbacks = fallbacks.value();
  s.compile_ms = compile_ms.value();
  return s;
}

void JitStats::Reset() {
  compiles.Reset();
  compile_failures.Reset();
  retries.Reset();
  timeouts.Reset();
  cache_hits_memory.Reset();
  cache_hits_disk.Reset();
  fallbacks.Reset();
  compile_ms.Reset();
}

std::string JitStats::Snapshot::ToString() const {
  return StringFormat(
      "compiles=%lld failures=%lld retries=%lld timeouts=%lld "
      "cache_hits=%lld(mem)/%lld(disk) fallbacks=%lld compile_ms=%lld",
      static_cast<long long>(compiles),
      static_cast<long long>(compile_failures),
      static_cast<long long>(retries), static_cast<long long>(timeouts),
      static_cast<long long>(cache_hits_memory),
      static_cast<long long>(cache_hits_disk),
      static_cast<long long>(fallbacks),
      static_cast<long long>(compile_ms));
}

JitStats& GlobalJitStats() {
  // The registry owns the counters (and the shutdown dump of non-zero
  // instruments); this is just the stable bundle of handles.
  static JitStats* stats = new JitStats();
  return *stats;
}

std::string ResolvedKernelCacheKey(const std::string& source,
                                   const JitOptions& options) {
  return KernelCacheKey(source, ResolvedCompiler(options),
                        FlagConfig(options));
}

Result<std::unique_ptr<CompiledKernel>> CompileKernel(
    GeneratedKernel kernel, const QueryPlan& plan,
    const JitOptions& options) {
  SWOLE_RETURN_NOT_OK(options.Validate());
  JitStats& stats = GlobalJitStats();
  std::string compiler = ResolvedCompiler(options);
  SWOLE_RETURN_NOT_OK(ValidateExecToken("compiler (SWOLE_CXX)", compiler));
  std::string disk_cache_dir =
      GetEnvString("SWOLE_KERNEL_CACHE_DIR", options.disk_cache_dir);
  if (!disk_cache_dir.empty()) {
    SWOLE_RETURN_NOT_OK(
        ValidateExecToken("disk_cache_dir (SWOLE_KERNEL_CACHE_DIR)",
                          disk_cache_dir));
  }

  std::string cache_key =
      KernelCacheKey(kernel.source, compiler, FlagConfig(options));

  auto make_compiled = [&](std::shared_ptr<KernelLibrary> library,
                           std::string source_path, bool from_cache) {
    auto compiled = std::unique_ptr<CompiledKernel>(new CompiledKernel());
    compiled->kernel_ = std::move(kernel);
    compiled->library_ = std::move(library);
    compiled->source_path_ = std::move(source_path);
    compiled->from_cache_ = from_cache;
    for (const AggSpec& agg : plan.aggs) {
      compiled->agg_names_.push_back(agg.name);
    }
    return compiled;
  };

  // Cache layers first: identical (source, compiler, flags) means the
  // compile below would produce an identical object. keep_artifacts asks
  // for an inspectable source tree, which only a fresh compile produces.
  if (options.use_cache && !options.keep_artifacts) {
    if (std::shared_ptr<KernelLibrary> library =
            KernelCache::Global().Lookup(cache_key)) {
      stats.cache_hits_memory.Add(1);
      NoteCorpusLookup(cache_key, /*hit=*/true);
      return make_compiled(std::move(library), "", /*from_cache=*/true);
    }
    if (!disk_cache_dir.empty()) {
      Result<std::shared_ptr<KernelLibrary>> from_disk =
          KernelCache::Global().LookupDisk(disk_cache_dir, cache_key);
      if (from_disk.ok() && *from_disk != nullptr) {
        stats.cache_hits_disk.Add(1);
        NoteCorpusLookup(cache_key, /*hit=*/true);
        KernelCache::Global().Insert(cache_key, *from_disk);
        return make_compiled(std::move(*from_disk), "", /*from_cache=*/true);
      }
      if (!from_disk.ok()) {
        SWOLE_LOG(WARNING) << "kernel disk cache entry unusable, "
                              "recompiling: "
                           << from_disk.status().ToString();
      }
    }
  }

  // Reaching here means a fresh compile — for a key the startup corpus
  // claimed to have precompiled, that is a cold miss worth accounting.
  NoteCorpusLookup(cache_key, /*hit=*/false);

  SWOLE_ASSIGN_OR_RETURN(ScratchDir dir, MakeWorkDir(options));
  int64_t id = g_kernel_counter.fetch_add(1);
  std::string base = StringFormat("%s/kernel_%lld", dir.path().c_str(),
                                  static_cast<long long>(id));
  std::string source_path = base + ".cc";
  std::string library_path = base + ".so";
  dir.Track(source_path);
  dir.Track(library_path);

  SWOLE_FAULT_POINT("jit_source_write",
                    Status::IOError("injected fault: jit_source_write"));
  {
    std::ofstream out(source_path);
    if (!out) {
      return Status::IOError(
          StringFormat("cannot write %s", source_path.c_str()));
    }
    out << kernel.source;
  }

  // The generated unit needs the logging runtime (CHECK failures in the
  // shared hash table); compile it in rather than exporting host symbols.
  int64_t timeout_ms =
      GetEnvInt64("SWOLE_JIT_TIMEOUT_MS", options.compile_timeout_ms);

  std::vector<std::string> rungs = {options.extra_flags};
  rungs.insert(rungs.end(), options.degrade_flags.begin(),
               options.degrade_flags.end());

  Status last_failure;
  bool compiled_ok = false;
  for (size_t attempt = 0; attempt < rungs.size(); ++attempt) {
    if (attempt > 0) {
      stats.retries.Add(1);
      SWOLE_LOG(WARNING) << "JIT retry " << attempt << " for plan "
                         << plan.name << " with flags \"" << rungs[attempt]
                         << "\": " << last_failure.ToString();
    }
    if (FaultInjector::Global().ShouldFail("jit_compile")) {
      last_failure = Status::Internal("injected fault: jit_compile");
      stats.compile_failures.Add(1);
      continue;
    }
    std::vector<std::string> argv = {compiler, "-std=c++20"};
    for (std::string& flag : SplitFlags(rungs[attempt])) {
      argv.push_back(std::move(flag));
    }
    argv.insert(argv.end(),
                {"-shared", "-fPIC", "-DNDEBUG", "-I" SWOLE_SOURCE_DIR,
                 source_path, SWOLE_SOURCE_DIR "/common/logging.cc", "-o",
                 library_path});
    SubprocessOptions sub_options;
    sub_options.timeout_ms = timeout_ms;
    stats.compiles.Add(1);
    SWOLE_ASSIGN_OR_RETURN(SubprocessResult run,
                           RunSubprocess(argv, sub_options));
    stats.compile_ms.Add(run.elapsed_ms);
    if (run.Succeeded()) {
      compiled_ok = true;
      break;
    }
    stats.compile_failures.Add(1);
    if (run.timed_out) {
      stats.timeouts.Add(1);
      last_failure = Status::Internal(StringFormat(
          "JIT compile timed out after %lld ms (flags \"%s\"); compiler "
          "killed",
          static_cast<long long>(run.elapsed_ms), rungs[attempt].c_str()));
    } else {
      last_failure = Status::Internal(StringFormat(
          "JIT compile failed (%s, flags \"%s\"):\n%s",
          run.exit_code >= 0
              ? StringFormat("rc=%d", run.exit_code).c_str()
              : StringFormat("signal=%d", run.term_signal).c_str(),
          rungs[attempt].c_str(),
          run.captured_output.substr(0, 2000).c_str()));
    }
  }
  if (!compiled_ok) {
    return Status::Internal(StringFormat(
        "JIT compile failed after %d attempt(s); last error: %s",
        static_cast<int>(rungs.size()), last_failure.message().c_str()));
  }

  SWOLE_ASSIGN_OR_RETURN(std::shared_ptr<KernelLibrary> library,
                         KernelLibrary::Load(library_path));

  if (options.use_cache) {
    KernelCache::Global().Insert(cache_key, library);
    if (!disk_cache_dir.empty()) {
      Status stored = KernelCache::Global().StoreDisk(disk_cache_dir,
                                                      cache_key,
                                                      library_path);
      if (!stored.ok()) {
        SWOLE_LOG(WARNING) << "kernel disk cache store failed: "
                           << stored.ToString();
      }
    }
  }

  if (options.keep_artifacts) {
    dir.Disarm();
  }
  // Otherwise the scratch dir unlinks source + .so (the mapped object
  // survives the unlink) and removes the auto-created work dir itself.
  return make_compiled(std::move(library), source_path,
                       /*from_cache=*/false);
}

Result<QueryResult> CompiledKernel::Run(const Catalog& catalog,
                                        int num_threads,
                                        exec::QueryContext* query_ctx) const {
  // Bind column slots.
  std::vector<const void*> columns;
  for (const ColumnSlot& slot : kernel_.column_slots) {
    SWOLE_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(slot.table));
    SWOLE_ASSIGN_OR_RETURN(const Column* column,
                           table->GetColumn(slot.column));
    if (column->type().physical != slot.physical) {
      return Status::TypeError(StringFormat(
          "kernel slot %s.%s expects %s", slot.table.c_str(),
          slot.column.c_str(), PhysicalTypeName(slot.physical)));
    }
    const void* data = DispatchPhysical(
        column->type().physical,
        [&]<typename T>() -> const void* { return column->Data<T>(); });
    columns.push_back(data);
  }

  std::vector<int64_t> table_rows;
  for (const std::string& name : kernel_.table_slots) {
    SWOLE_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    table_rows.push_back(table->num_rows());
  }

  // Bind fk-index slots, checking the index is sized for the tables it is
  // bound against — the generated loops index offsets[] by owner row and
  // bitmaps by referenced row, so a stale or foreign index would read out
  // of bounds instead of returning an error.
  std::vector<const uint32_t*> fk_offsets;
  for (size_t s = 0; s < kernel_.fk_slots_table.size(); ++s) {
    SWOLE_ASSIGN_OR_RETURN(const Table* owner,
                           catalog.GetTable(kernel_.fk_slots_table[s]));
    SWOLE_ASSIGN_OR_RETURN(const FkIndex* index,
                           owner->GetFkIndex(kernel_.fk_slots_column[s]));
    if (index->size() != owner->num_rows()) {
      return Status::InvalidArgument(StringFormat(
          "fk index %s.%s covers %lld rows but the table has %lld",
          kernel_.fk_slots_table[s].c_str(),
          kernel_.fk_slots_column[s].c_str(),
          static_cast<long long>(index->size()),
          static_cast<long long>(owner->num_rows())));
    }
    if (s < kernel_.fk_slots_ref_table.size()) {
      SWOLE_ASSIGN_OR_RETURN(
          const Table* referenced,
          catalog.GetTable(kernel_.fk_slots_ref_table[s]));
      if (index->referenced_size() != referenced->num_rows()) {
        return Status::InvalidArgument(StringFormat(
            "fk index %s.%s references %lld rows but %s has %lld",
            kernel_.fk_slots_table[s].c_str(),
            kernel_.fk_slots_column[s].c_str(),
            static_cast<long long>(index->referenced_size()),
            kernel_.fk_slots_ref_table[s].c_str(),
            static_cast<long long>(referenced->num_rows())));
      }
    }
    fk_offsets.push_back(index->offsets());
  }

  // Bind raw-text slots (ABI v5): the StringColumn byte arena + offset
  // array per slot. The logical-type check mirrors the generator's — a
  // slot bound to anything but raw text would send the compiled matcher
  // into garbage.
  std::vector<const void*> text_bytes;
  std::vector<const uint32_t*> text_offsets;
  for (size_t s = 0; s < kernel_.text_slots_table.size(); ++s) {
    SWOLE_ASSIGN_OR_RETURN(const Table* table,
                           catalog.GetTable(kernel_.text_slots_table[s]));
    SWOLE_ASSIGN_OR_RETURN(const Column* column,
                           table->GetColumn(kernel_.text_slots_column[s]));
    if (column->type().logical != LogicalType::kText ||
        column->text() == nullptr) {
      return Status::TypeError(StringFormat(
          "kernel text slot %s.%s expects a raw-text column",
          kernel_.text_slots_table[s].c_str(),
          kernel_.text_slots_column[s].c_str()));
    }
    text_bytes.push_back(column->text()->bytes());
    text_offsets.push_back(column->text()->offsets());
  }

  QueryResult result;
  result.agg_names = agg_names_;
  std::vector<int64_t> scalar(kernel_.num_aggs, 0);

  struct EmitContext {
    QueryResult* result;
  } emit_context{&result};

  KernelIO io;
  io.columns = columns.data();
  io.table_rows = table_rows.data();
  io.fk_offsets = fk_offsets.data();
  io.scalar_out = scalar.data();
  io.group_ctx = &emit_context;
  io.emit_group = [](void* ctx, int64_t key, const int64_t* aggs) {
    auto* emit = static_cast<EmitContext*>(ctx);
    emit->result->AddGroup(key, aggs);
  };
  // ABI v5: raw-text arenas (empty for plans without string predicates).
  io.text_bytes = text_bytes.data();
  io.text_offsets = text_offsets.data();

  // Governance (ABI v3): the kernel's structures charge the context's
  // memory tracker and its morsel entry polls the cancellation token. The
  // hooks stay null on ungoverned runs — same generated source either way.
  exec::GovernanceScope governance(query_ctx, /*mem_limit_bytes=*/-1,
                                   /*deadline_ms=*/-1);
  exec::QueryContext* qctx = governance.ctx();
  if (qctx != nullptr) {
    io.governor = qctx;
    io.mem_charge = exec::QueryContext::MemHookThunk;
    io.cancel_check = exec::QueryContext::CancelCheckThunk;
  }

  // Spans live entirely on the host side of the morsel ABI — the generated
  // source is identical for traced and untraced runs.
  obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
  obs::SpanScope kernel_span(trace, "jit_kernel");
  kernel_span.Attr("cache_hit", static_cast<int64_t>(from_cache_ ? 1 : 0));
  std::optional<obs::SpanScope> phase;

  if (kernel_.grouped) {
    result.grouped = true;
    result.num_aggs = kernel_.num_aggs;
  }

  // Drive the morsel ABI: build the shared dim structures once,
  // then scan the fact in tile-aligned morsels under the work-stealing
  // scheduler with one generated state per worker, merged in worker order
  // (bit-exact at every thread count), and emit from worker 0's state.
  SWOLE_ASSIGN_OR_RETURN(const Table* fact,
                         catalog.GetTable(kernel_.fact_table));
  const int resolved_threads = exec::ResolveNumThreads(num_threads);
  kernel_span.Attr("threads", static_cast<int64_t>(resolved_threads));

  using BuildFn = void* (*)(const KernelIO*);
  using ThreadStateFn = void* (*)(const KernelIO*);
  using MorselFn = void (*)(const KernelIO*, void*, void*, int64_t, int64_t);
  using MergeFn = void (*)(void*, void*);
  using FinishFn = void (*)(const KernelIO*, void*, void*);
  auto build = reinterpret_cast<BuildFn>(library_->build_entry());
  auto thread_state =
      reinterpret_cast<ThreadStateFn>(library_->thread_state_entry());
  auto morsel = reinterpret_cast<MorselFn>(library_->morsel_entry());
  auto merge = reinterpret_cast<MergeFn>(library_->merge_entry());
  auto finish = reinterpret_cast<FinishFn>(library_->finish_entry());

  void* shared = nullptr;
  std::vector<void*> states(resolved_threads, nullptr);

  // Best-effort teardown of generated-side allocations after an abort:
  // merge deletes its `from`, finish deletes state + shared (their
  // destructors release tracked charges). A second abort mid-teardown
  // (e.g. a refused rehash inside merge) leaks that state — bounded, and
  // only on an already-failing query.
  auto cleanup = [&]() noexcept {
    if (states[0] != nullptr) {
      for (int w = 1; w < resolved_threads; ++w) {
        if (states[w] == nullptr) continue;
        try {
          merge(states[0], states[w]);
        } catch (...) {
        }
        states[w] = nullptr;
      }
    }
    // finish tolerates a null worker-0 state (abort before it existed)
    // and still frees the shared structures.
    if (shared != nullptr || states[0] != nullptr) {
      try {
        finish(&io, shared, states[0]);
      } catch (...) {
      }
      states[0] = nullptr;
      shared = nullptr;
    }
  };

  phase.emplace(trace, "build");
  try {
    shared = build(&io);
    for (int w = 0; w < resolved_threads; ++w) states[w] = thread_state(&io);
  } catch (...) {
    Status aborted = exec::StatusFromCurrentException(qctx);
    cleanup();
    return aborted;
  }
  phase.reset();

  phase.emplace(trace, "scan");
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      qctx, resolved_threads, fact->num_rows(),
      exec::DefaultMorselSize(kernel_.tile_size),
      [&](int worker, int64_t begin, int64_t end) {
        morsel(&io, shared, states[worker], begin, end);
      });
  phase->Attr("morsels", scan_stats.morsels);
  phase->Attr("steals", scan_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(scan_stats.workers));
  phase.reset();
  if (!scan_stats.status.ok()) {
    cleanup();
    return scan_stats.status;
  }

  phase.emplace(trace, "merge");
  try {
    for (int w = 1; w < resolved_threads; ++w) {
      merge(states[0], states[w]);
      states[w] = nullptr;
    }
    phase.reset();
    phase.emplace(trace, "finish");
    finish(&io, shared, states[0]);
    states[0] = nullptr;
    shared = nullptr;
  } catch (...) {
    Status aborted = exec::StatusFromCurrentException(qctx);
    cleanup();
    return aborted;
  }
  phase.reset();

  if (kernel_.grouped) {
    if (sort_groups_) result.SortGroups();
  } else {
    result.grouped = false;
    result.scalar = std::move(scalar);
  }
  return result;
}

Result<std::unique_ptr<CompiledKernel>> GenerateAndCompile(
    const QueryPlan& plan, const Catalog& catalog,
    const GeneratorOptions& gen_options, const JitOptions& jit_options) {
  SWOLE_ASSIGN_OR_RETURN(GeneratedKernel kernel,
                         GenerateKernel(plan, catalog, gen_options));
  return CompileKernel(std::move(kernel), plan, jit_options);
}

namespace {

// ExecuteWithFallback's attempt chain under the query's context: the
// compiled kernel first, then the interpreted engine for the strategy,
// then the reference oracle. The interpreted engines re-enter RunQuery on
// this thread with `qctx` as their external context, so they ride this
// query's admission slot, budget, deadline and accumulated peak
// attribution.
Result<QueryResult> CompileAndRunOrFallBack(const QueryPlan& plan,
                                            const Catalog& catalog,
                                            const GeneratorOptions& gen_options,
                                            const JitOptions& jit_options,
                                            ExecutionReport* report,
                                            exec::QueryContext* qctx) {
  obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
  Status jit_failure;
  std::optional<obs::SpanScope> compile_span;
  compile_span.emplace(trace, "jit_compile");
  compile_span->Attr("strategy", StrategyKindName(gen_options.strategy));
  Result<std::unique_ptr<CompiledKernel>> compiled =
      GenerateAndCompile(plan, catalog, gen_options, jit_options);
  if (compiled.ok()) {
    report->cache_hit = (*compiled)->from_cache();
    compile_span->Attr("cache_hit",
                       static_cast<int64_t>(report->cache_hit ? 1 : 0));
    compile_span.reset();
    Result<QueryResult> run =
        (*compiled)->Run(catalog, gen_options.num_threads, qctx);
    if (run.ok()) {
      report->used_jit = true;
      return std::move(run).value();
    }
    jit_failure = run.status();
  } else {
    jit_failure = compiled.status();
    compile_span->Attr("error", jit_failure.ToString());
    compile_span.reset();
  }

  // Governance aborts are query-lifecycle outcomes, not JIT infrastructure
  // failures: re-running the same work interpreted would just breach (or
  // miss the deadline) again. Surface them structured — except a SWOLE
  // budget breach, which earns one retry on the memory-lean data-centric
  // interpreter under the same context (SwoleStrategy's degradation path).
  if (jit_failure.IsGovernance()) {
    if (jit_failure.code() == StatusCode::kBudgetExceeded && qctx != nullptr &&
        qctx->spill_enabled()) {
      // Spill engages host-side only: generated kernels keep their
      // in-memory group tables (and therefore their source text and cache
      // keys — a spilling kernel variant would fork the kernel corpus), so
      // a budget breach with spill enabled retries on the interpreted
      // engine of the SAME strategy, whose group tables spill to disk
      // under this same context instead of aborting.
      SWOLE_LOG(WARNING) << "JIT kernel for plan \"" << plan.name
                         << "\" breached its memory budget ("
                         << jit_failure.ToString()
                         << "); retrying interpreted "
                         << StrategyKindName(gen_options.strategy)
                         << " with spill-to-disk";
      GlobalJitStats().fallbacks.Add(1);
      report->used_fallback = true;
      report->fallback_reason = jit_failure.ToString();
      StrategyOptions spill_options;
      spill_options.tile_size = gen_options.tile_size;
      spill_options.num_threads = gen_options.num_threads;
      spill_options.query_ctx = qctx;
      std::unique_ptr<Strategy> spilling =
          MakeStrategy(gen_options.strategy, catalog, spill_options);
      Result<QueryResult> spilled = spilling->Execute(plan);
      if (spilled.ok()) report->fallback_engine = spilling->name();
      return spilled;
    }
    if (jit_failure.code() == StatusCode::kBudgetExceeded && qctx != nullptr &&
        gen_options.strategy == StrategyKind::kSwole) {
      SWOLE_LOG(WARNING) << "JIT kernel for plan \"" << plan.name
                         << "\" breached its memory budget ("
                         << jit_failure.ToString()
                         << "); degrading to interpreted data-centric";
      qctx->CountDegradation();
      GlobalJitStats().fallbacks.Add(1);
      report->used_fallback = true;
      report->fallback_reason = jit_failure.ToString();
      StrategyOptions lean_options;
      lean_options.tile_size = gen_options.tile_size;
      lean_options.num_threads = gen_options.num_threads;
      lean_options.query_ctx = qctx;
      std::unique_ptr<Strategy> lean =
          MakeStrategy(StrategyKind::kDataCentric, catalog, lean_options);
      Result<QueryResult> degraded = lean->Execute(plan);
      if (degraded.ok()) report->fallback_engine = lean->name();
      return degraded;
    }
    return jit_failure;
  }

  GlobalJitStats().fallbacks.Add(1);
  report->used_fallback = true;
  report->fallback_reason = jit_failure.ToString();
  SWOLE_LOG(WARNING) << "JIT unavailable for plan \"" << plan.name
                     << "\", executing interpreted: "
                     << jit_failure.ToString();

  // First choice: the interpreted engine for the same strategy, so the
  // fallback keeps the strategy's access patterns (and its performance
  // envelope) — and the caller's tile size and thread count. The reference
  // oracle is the engine of last resort.
  StrategyOptions fallback_options;
  fallback_options.tile_size = gen_options.tile_size;
  fallback_options.num_threads = gen_options.num_threads;
  fallback_options.query_ctx = qctx;
  std::unique_ptr<Strategy> engine =
      MakeStrategy(gen_options.strategy, catalog, fallback_options);
  Result<QueryResult> interpreted = engine->Execute(plan);
  if (interpreted.ok()) {
    report->fallback_engine = engine->name();
    return std::move(interpreted).value();
  }
  // An interpreted governance abort is final for the same reason as above.
  if (interpreted.status().IsGovernance()) return interpreted.status();
  ReferenceEngine reference(catalog, gen_options.num_threads);
  reference.set_query_context(qctx);
  Result<QueryResult> oracle = reference.Execute(plan);
  if (!oracle.ok()) return oracle.status();
  report->fallback_engine = "reference";
  return std::move(oracle).value();
}

}  // namespace

Result<QueryResult> ExecuteWithFallback(const QueryPlan& plan,
                                        const Catalog& catalog,
                                        const GeneratorOptions& gen_options,
                                        const JitOptions& jit_options,
                                        ExecutionReport* report) {
  ExecutionReport local_report;
  if (report == nullptr) report = &local_report;
  *report = ExecutionReport();

  // Admission comes before compiling anything, so a shed query does not
  // occupy the compiler either. The context is env-resolved
  // (SWOLE_MEM_LIMIT / SWOLE_DEADLINE_MS): GeneratorOptions carries no
  // limits of its own.
  StrategyOptions entry;
  entry.priority = gen_options.priority;
  entry.tenant = gen_options.tenant;
  entry.trace = gen_options.trace;
  return RunQuery("jit", entry, [&](exec::QueryContext* qctx) {
    return CompileAndRunOrFallBack(plan, catalog, gen_options, jit_options,
                                   report, qctx);
  });
}

}  // namespace swole::codegen

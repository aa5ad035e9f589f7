package analysis

// invariants.go holds the suite's declarative tables; the analyzers
// that read them are generic. SingleDefs and ForbiddenDecls are the
// single-sourcing contracts established when the shared
// internal/runtime layer was extracted (PR 1/2) and the placement index
// was built (PR 3): each entry says "this declaration exists exactly
// once in the module, in this file". They replace the grep guards that
// used to live in scripts/check.sh — an AST-level check cannot be
// false-positived by a comment or string literal, and cannot be
// false-negatived by a renamed receiver or reformatted signature.
// ForbiddenCalls bans calls in package scopes; SnapshotContracts,
// PoolContracts and ChannelContracts declare publication, ownership
// and channel-lifecycle disciplines, resolved by contract.go.

// DeclKind classifies a top-level declaration.
type DeclKind int

const (
	// KindFunc is a package-level function.
	KindFunc DeclKind = iota
	// KindType is a type declaration.
	KindType
	// KindMethod is a method, matched by receiver base type and name.
	KindMethod
	// KindConst is a package-level constant.
	KindConst
)

func (k DeclKind) String() string {
	switch k {
	case KindFunc:
		return "func"
	case KindType:
		return "type"
	case KindMethod:
		return "method"
	case KindConst:
		return "const"
	}
	return "decl"
}

// SingleDef declares that one named declaration must exist exactly
// once, in File (module-relative path).
type SingleDef struct {
	Kind DeclKind
	Recv string // receiver base type for KindMethod, "" otherwise
	Name string
	File string
	Why  string
}

// DeclName renders the human-readable declaration name.
func (s SingleDef) DeclName() string {
	if s.Recv != "" {
		return s.Recv + "." + s.Name
	}
	return s.Name
}

// ForbiddenDecl declares a name that must not be declared outside the
// allowed package scope: the private re-implementations of runtime
// policies that the data planes used to grow.
type ForbiddenDecl struct {
	Kind       DeclKind
	Name       string
	AllowedPkg string // module-relative package scope, e.g. "internal/runtime"
	Why        string
}

// SingleDefs is the production single-definition table.
var SingleDefs = []SingleDef{
	{KindFunc, "", "BatchTimeout", "internal/runtime/runtime.go",
		"the Eq. 1 batch-timeout policy is shared by both data planes"},
	{KindFunc, "", "ScaleAheadTarget", "internal/runtime/runtime.go",
		"the alpha scale-ahead sizing rule is shared by both data planes"},
	{KindType, "", "RateEstimator", "internal/runtime/rate.go",
		"one arrival-rate estimator serves the simulator and the gateway"},
	{KindType, "", "Pool", "internal/runtime/pool.go",
		"one instance-pool implementation serves both data planes"},
	{KindType, "", "Histogram", "internal/metrics/histogram.go",
		"every latency quantile in the tree comes from the log-bucketed histogram"},
	{KindMethod, "Histogram", "Quantile", "internal/metrics/histogram.go",
		"Report figures, Prometheus buckets and JSON snapshots share one quantile estimator"},
	{KindType, "", "freeIndex", "internal/cluster/index.go",
		"placement queries go through the one free-capacity index"},
	{KindMethod, "Cluster", "BestFit", "internal/cluster/cluster.go",
		"best-fit placement has one implementation, backed by the shard indexes"},
	{KindType, "", "shard", "internal/cluster/shard.go",
		"the partitioned resource view is defined once, next to its merge rule"},
	{KindMethod, "Cluster", "BestFitShards", "internal/cluster/shard.go",
		"the deterministic shard merge (least key, lowest id on ties) has one implementation"},
	{KindType, "", "FitPool", "internal/cluster/fanout.go",
		"the parallel shard fan-out and its chunk merge live with the shard layout"},
	{KindType, "", "RateStripes", "internal/runtime/rates.go",
		"one striped rate map serves the simulator and the gateway"},
	{KindType, "", "planeRing", "internal/runtime/rates.go",
		"the lock-free plane-wide arrival aggregate has one implementation"},
	{KindFunc, "", "Legacy", "internal/artifact/artifact.go",
		"the scalar 900ms+MB/220MBps cold-start formula has one home; perf and the gateway call it"},
	{KindType, "", "Hierarchy", "internal/artifact/artifact.go",
		"the per-tier bandwidth/latency model is defined once, next to its tier enum"},
	{KindType, "", "Cache", "internal/artifact/cache.go",
		"one deterministic per-server artifact LRU serves the simulator and the gateway"},
	{KindType, "", "ArtifactQuery", "internal/cluster/shard.go",
		"the startup-aware placement view is defined once, next to the shard merge it extends"},
	{KindMethod, "Cluster", "BestFitShardsArtifact", "internal/cluster/shard.go",
		"the startup-tie-break shard merge has one implementation, mirroring BestFitShards"},
	{KindType, "", "funcTable", "internal/gateway/table.go",
		"the gateway's copy-on-write dispatch table has one home, next to its publish discipline"},
	{KindType, "", "aliasMap", "internal/analysis/alias.go",
		"the intraprocedural alias pass has one implementation; every flow analyzer shares it"},
	{KindType, "", "SnapshotContract", "internal/analysis/invariants.go",
		"copy-on-write publication contracts are declared in one table, next to the other invariants"},
	{KindType, "", "PoolContract", "internal/analysis/invariants.go",
		"pool ownership contracts are declared in one table, next to the other invariants"},
	{KindFunc, "", "runAtomicSnapshot", "internal/analysis/atomicsnapshot.go",
		"the COW-publication analyzer has one home"},
	{KindFunc, "", "runPoolContract", "internal/analysis/poolcontract.go",
		"the pool-ownership analyzer has one home"},
	{KindFunc, "", "runHotAlloc", "internal/analysis/hotalloc.go",
		"the zero-alloc hot-path gate has one home"},
	{KindType, "", "ChannelContract", "internal/analysis/invariants.go",
		"channel lifecycle contracts are declared in one table, next to the other invariants"},
	{KindFunc, "", "runGoroutineLife", "internal/analysis/goroutinelife.go",
		"the goroutine-termination analyzer has one home"},
	{KindFunc, "", "runChanLife", "internal/analysis/chanlife.go",
		"the channel-discipline analyzer has one home"},
	{KindFunc, "", "runCtxFlow", "internal/analysis/ctxflow.go",
		"the context-hygiene analyzer has one home"},
	{KindType, "", "funcIndex", "internal/analysis/index.go",
		"one function index (roots, CFGs, alias maps, call sites, close sites) is built once per run for every analyzer"},
	{KindMethod, "funcIndex", "fixpoint", "internal/analysis/index.go",
		"the call-graph summaries (acquires, notifies, mutated params, fresh returners) share one fixpoint"},
	{KindFunc, "", "lockStep", "internal/analysis/lockorder.go",
		"lockorder, lockedcallback and atomicsnapshot share one lock-held transfer"},
	{KindType, "", "ForbiddenCall", "internal/analysis/invariants.go",
		"forbidden-call rules are declared in one table, next to the other invariants"},
	{KindFunc, "", "forbiddenCalls", "internal/analysis/wallclock.go",
		"wallclock, serverscan and ctxflow report their ForbiddenCalls rows through one runner"},
	{KindMethod, "funcIndex", "resolveRow", "internal/analysis/contract.go",
		"every contract table resolves through one resolver with one stale-row diagnostic"},
	{KindFunc, "", "freshContainer", "internal/analysis/atomicsnapshot.go",
		"the Store-side and return-side fresh-container checks share one classifier"},
	{KindFunc, "", "containerWrites", "internal/analysis/atomicsnapshot.go",
		"snapshot reads and the mutated-params summary share one container-mutation classifier"},
	{KindMethod, "Instance", "trySubmit", "internal/runtime/instance.go",
		"the submit decision (full batch now, partial at the head's deadline, hold while starting or busy) has one definition"},
	{KindMethod, "Function", "Startup", "internal/runtime/instance.go",
		"tiered startup pricing (tier lookup, load, DRAM promote) has one definition"},
	{KindMethod, "Instance", "Served", "internal/runtime/instance.go",
		"the served-sample decomposition into cold, queue and exec has one definition"},
	{KindMethod, "Instance", "scheduleReclaim", "internal/runtime/instance.go",
		"keep-alive arming has one definition"},
	{KindMethod, "Function", "keepAlive", "internal/runtime/instance.go",
		"the keep-alive duration (fixed, policy window, or tiered decision) has one definition"},
	{KindMethod, "Instance", "Reclaim", "internal/runtime/instance.go",
		"reclaim (stop timers, hand back the queued requests, once only) has one definition"},
	{KindMethod, "Instance", "Release", "internal/runtime/instance.go",
		"reclaim bookkeeping (cluster release, checkpoint demotion to the idle tier) has one definition"},
}

// SnapshotContract declares one copy-on-write publication point: a
// struct field of type atomic.Pointer[T] (T a map or slice) whose Load
// side must be treated as immutable and whose Store side must publish a
// fresh copy while holding the declared writer mutex. The atomicsnapshot
// analyzer enforces both sides; an atomic.Pointer-published container
// with no entry here is itself a diagnostic — every publication point
// must declare its discipline.
type SnapshotContract struct {
	Pkg   string // module-relative package scope, e.g. "internal/gateway"
	Type  string // named struct type holding the pointer
	Field string // the atomic.Pointer field
	Mutex string // sibling writer-mutex field that must be held at Store
	Why   string
}

// SnapshotContracts is the production COW-publication table.
var SnapshotContracts = []SnapshotContract{
	{"internal/gateway", "funcTable", "v", "mu",
		"the dispatch table is read lock-free on every request; writers copy under mu and swap"},
	{"internal/gateway", "function", "insts", "mu",
		"the instance snapshot is walked lock-free by offer(); scale events copy under f.mu"},
	{"internal/core", "Registry", "v", "mu",
		"registry lookups are lock-free; Register/Delete copy the map under mu and swap"},
}

// PoolKind classifies how a pool's recycle point is reached.
type PoolKind int

const (
	// PoolScheduled is the simclock shape: objects are acquired by a
	// schedule call and recycled implicitly when their callback fires
	// or when a Cancel drains them — the contract is about stored
	// references outliving the recycle, checked through the callback.
	PoolScheduled PoolKind = iota
	// PoolSync is the sync.Pool shape: objects are acquired by
	// Pool.Get and recycled by an explicit Pool.Put — the contract is
	// use-after-Put, double-Put, and escapes without ownership
	// transfer.
	PoolSync
)

// PoolContract declares one pooled-object discipline for the
// poolcontract analyzer. Exactly one of the two shapes is filled in:
// PoolScheduled uses TypePkg/TypeName + AcquireFuncs; PoolSync uses
// PoolVar (the package-level sync.Pool variable whose Get/Put calls are
// the acquire/recycle points).
type PoolContract struct {
	Kind  PoolKind
	Scope []string // module-relative package scopes the contract applies in

	// PoolScheduled shape.
	TypePkg      string   // package-path suffix of the pooled type, e.g. "internal/simclock"
	TypeName     string   // pooled type name, e.g. "Event"
	AcquireFuncs []string // recv.method names whose result is a pooled object

	// PoolSync shape.
	PoolVar string // package-level sync.Pool variable name, e.g. "invocationPool"

	// TransferViaSend marks a channel send of the pooled object as a
	// visible ownership transfer (the receiver recycles it) instead of
	// an escape.
	TransferViaSend bool

	Why string
}

// PoolContracts is the production pool-ownership table.
var PoolContracts = []PoolContract{
	{Kind: PoolScheduled, Scope: nil, // module-wide, like the retired pooledref
		TypePkg: "internal/simclock", TypeName: "Event",
		AcquireFuncs: []string{"Clock.ScheduleAt", "Clock.ScheduleAfter"},
		Why:          "simclock events are recycled after firing; stored references must be cleared"},
	{Kind: PoolSync, Scope: []string{"internal/gateway"},
		PoolVar: "invocationPool",
		Why:     "invocations are recycled only after the reply or when never enqueued; a stored reference outlives the recycle"},
	{Kind: PoolSync, Scope: []string{"internal/gateway"},
		PoolVar: "deadlinePool",
		Why:     "pooled timers are reused across requests; a timer used after putDeadline fires for a stranger"},
	{Kind: PoolSync, Scope: []string{"internal/gateway"},
		PoolVar: "invokeBufPool",
		Why:     "response buffers are reused across requests; bytes written after Put corrupt another reply"},
	{Kind: PoolSync, Scope: []string{"internal/loadgen"},
		PoolVar: "recorderPool",
		Why:     "saturation ramps replay Run per step; recorders are pooled and reset between steps"},
}

// ChannelContract declares the lifecycle discipline of one channel
// identity for the chanlife analyzer. A channel is identified either as
// a struct field (Type + Field) or as a local of one function (Func +
// Var; Func is "Recv.Method" for methods). The analyzer enforces, per
// contract: the module contains exactly Closers static close sites for
// the channel; a SignalOnly channel is never the target of a send; and
// within any one function body no send or second close is reachable
// after a close on some path (may-analysis over the CFG). Channel-typed
// struct fields in a contracted package with no entry here are
// themselves diagnosed — every long-lived channel must declare who
// closes it, even if the answer is "nobody" (Closers: 0).
type ChannelContract struct {
	Pkg   string // module-relative package scope, e.g. "internal/gateway"
	Type  string // struct type for field channels ("" for locals)
	Field string // channel field name ("" for locals)
	Func  string // declaring function for locals: "Func" or "Recv.Method"
	Var   string // local channel variable name ("" for fields)

	// Closers is the number of static close sites the module must
	// contain for this channel identity. 0 declares a never-closed
	// channel (receivers exit by another signal, or the channel is a
	// per-object reply slot abandoned to the GC).
	Closers int
	// SignalOnly marks a close-only channel (quit/done): receivers wait
	// for the close; any send through it is a diagnostic.
	SignalOnly bool

	Why string
}

// DisplayName renders the contract's channel identity.
func (c ChannelContract) DisplayName() string {
	if c.Field != "" {
		return c.Type + "." + c.Field
	}
	return c.Func + "." + c.Var
}

// ChannelContracts is the production channel-lifecycle table: every
// long-lived channel in the concurrent runtime packages, with its close
// ownership. The goroutinelife analyzer independently proves the
// goroutines blocked on these channels can exit.
var ChannelContracts = []ChannelContract{
	{Pkg: "internal/gateway", Type: "instance", Field: "quit",
		Closers: 1, SignalOnly: true,
		Why: "the instance stop signal: closed exactly once, by the step whose Reclaim succeeded; a send would panic a second stopper"},
	{Pkg: "internal/gateway", Type: "invocation", Field: "respCh",
		Closers: 0,
		Why:     "the buffered single-reply slot: never closed so a late instance send cannot panic; the invocation recycles with the channel inside"},
	{Pkg: "internal/cluster", Type: "FitPool", Field: "jobs",
		Closers: 1,
		Why:     "the fan-out work queue: FitPool.Close is the one closer; workers exit when the range drains"},
	{Pkg: "internal/gateway", Func: "Server.Close", Var: "done",
		Closers: 1, SignalOnly: true,
		Why: "the bounded-join signal: the waiter goroutine closes it once after instWG settles"},
	{Pkg: "internal/loadgen", Func: "runOpen", Var: "jobs",
		Closers: 1,
		Why:     "the pacer-to-worker handoff: the pacer closes it when the trace ends; workers exit when the range drains"},
	{Pkg: "internal/bench", Func: "RunStream", Var: "idx",
		Closers: 1,
		Why:     "the experiment feed: the feeder goroutine closes it after the last index; workers exit when the range drains"},
	{Pkg: "internal/bench", Func: "RunStream", Var: "done",
		Closers: 1, SignalOnly: true,
		Why: "per-experiment completion signals: the finishing worker closes each slot exactly once; the emitter only receives"},
	{Pkg: "internal/bench", Func: "Options.parallelFor", Var: "idx",
		Closers: 1,
		Why:     "the sweep-point feed: the caller closes it after the last index; workers exit when the range drains"},
}

// ForbiddenCall bans calls to some functions of one package inside a
// package scope. The wallclock, serverscan and ctxflow analyzers report
// the rows naming them through one runner.
type ForbiddenCall struct {
	Analyzer string   // the analyzer that reports a banned call
	Scope    []string // module-relative package scopes the ban applies in
	Pkg      string   // the callee's package: an import path, or a module-relative suffix
	Recv     string   // receiver base type for methods; "" bans package-level functions only
	Funcs    []string // the banned names; nil bans every name not in Except
	Except   []string
	// Message is the diagnostic; {func} expands to the callee's name
	// and {pkg} to the calling package's path.
	Message string
}

// deterministicScopes are the packages under the byte-identical
// determinism guarantee: the simulator runs real scheduling code against
// simulated machines, so any wall-clock read or unordered iteration here
// silently breaks -parallel N == -parallel 1.
var deterministicScopes = []string{
	"internal/artifact",
	"internal/sim",
	"internal/simclock",
	"internal/scheduler",
	"internal/cluster",
	"internal/batching",
	"internal/queueing",
	"internal/runtime",
	"internal/workload",
	"internal/bench",
}

// ForbiddenCalls is the production forbidden-call table.
var ForbiddenCalls = []ForbiddenCall{
	// Reading or waiting on the host clock; conversions (time.Duration)
	// and plain-value constructors (time.Unix) stay legal.
	{Analyzer: "wallclock", Scope: deterministicScopes, Pkg: "time",
		Funcs:   []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"},
		Message: "time.{func} in deterministic package {pkg}; route time through simclock or an injected clock"},
	// The global rand stream; constructors of seeded sources stay legal,
	// and so do methods on *rand.Rand.
	{Analyzer: "wallclock", Scope: deterministicScopes, Pkg: "math/rand",
		Except:  []string{"New", "NewSource", "NewZipf"},
		Message: "global math/rand.{func} in deterministic package {pkg}; use a seeded *rand.Rand"},
	{Analyzer: "wallclock", Scope: deterministicScopes, Pkg: "math/rand/v2",
		Except:  []string{"New", "NewSource", "NewZipf"},
		Message: "global math/rand.{func} in deterministic package {pkg}; use a seeded *rand.Rand"},
	{Analyzer: "serverscan", Scope: []string{"internal/scheduler"}, Pkg: "internal/cluster", Recv: "Cluster",
		Funcs: []string{"Servers", "EachServer"},
		Message: "Cluster.{func}() scan in the scheduler; placement must go " +
			"through cluster.BestFit/FirstFit (the sharded free-capacity indexes)"},
	// Everything on the request path runs under a caller's deadline, so
	// minting a root context there detaches work from cancellation.
	{Analyzer: "ctxflow", Scope: []string{"internal/gateway", "internal/loadgen"}, Pkg: "context",
		Funcs: []string{"Background", "TODO"},
		Message: "context.{func}() in a request-path package detaches work from the " +
			"caller's deadline; accept a ctx parameter and derive from it"},
}

// ForbiddenDecls is the production forbidden-declaration table.
var ForbiddenDecls = []ForbiddenDecl{
	{KindFunc, "batchTimeout", "internal/runtime",
		"lifecycle policy helpers live in internal/runtime only"},
	{KindType, "rateEstimator", "internal/runtime",
		"lifecycle policy helpers live in internal/runtime only"},
	{KindType, "instancePool", "internal/runtime",
		"lifecycle policy helpers live in internal/runtime only"},
	{KindType, "shard", "internal/cluster",
		"cluster sharding is the cluster package's concern; other layers see merged views"},
	{KindType, "fitPool", "internal/cluster",
		"shard fan-out pools live next to the merge they depend on"},
	{KindType, "rateStripe", "internal/runtime",
		"rate striping is internal/runtime's concern; planes hold a RateStripes"},
	{KindType, "planeRing", "internal/runtime",
		"plane-wide rate aggregation has one lock-free implementation"},
	{KindType, "artifactCache", "internal/artifact",
		"artifact residency tracking has one implementation; planes hold an artifact.Cache"},
	{KindType, "tierSpec", "internal/artifact",
		"per-tier bandwidth/latency tables live in internal/artifact only"},
	{KindType, "funcTable", "internal/gateway",
		"lock-free function-table snapshotting is the gateway's concern; one implementation"},
	{KindType, "functionTable", "internal/gateway",
		"lock-free function-table snapshotting is the gateway's concern; one implementation"},
	{KindMethod, "trySubmit", "internal/runtime",
		"the submit decision lives in the shared runtime.Instance machine; planes only drive it"},
	{KindMethod, "armTimeout", "internal/runtime",
		"batch-timer arming lives in the shared runtime.Instance machine; planes only drive it"},
	{KindMethod, "scheduleReclaim", "internal/runtime",
		"keep-alive arming lives in the shared runtime.Instance machine; planes only drive it"},
	{KindConst, "dispatchAllowance", "internal/runtime",
		"served samples come from plane-time stamps; no plane subtracts a guessed wall-clock allowance"},
}

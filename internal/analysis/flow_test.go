package analysis

// Corpus tests for the flow-sensitive analyzers (lockorder,
// atomicsnapshot, poolcontract, hotalloc, errflow) plus the suppression
// and unused-directive behavior built on RunAllDetail.

import (
	"strings"
	"testing"
)

func TestLockOrderFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "lockorder/bad", "github.com/tanklab/infless/internal/gateway/lobad")
	checkWants(t, u, []*Analyzer{LockOrderAnalyzer})
}

func TestLockOrderAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "lockorder/good", "github.com/tanklab/infless/internal/gateway/logood")
	checkWants(t, u, []*Analyzer{LockOrderAnalyzer})
}

// TestLockOrderSuppression: the justified inversion is silenced and
// surfaces in the suppressed half; the stale directive is reported.
func TestLockOrderSuppression(t *testing.T) {
	u := loadCorpus(t, "lockorder/suppress", "github.com/tanklab/infless/internal/gateway/losupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{LockOrderAnalyzer})
	if len(active) != 1 {
		t.Fatalf("want exactly the stale-directive diagnostic, got %v", active)
	}
	if active[0].Analyzer != "directive" || !strings.Contains(active[0].Message, "suppresses nothing") {
		t.Errorf("expected unused-directive diagnostic, got %s", active[0])
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "lockorder" {
		t.Fatalf("want one suppressed lockorder finding, got %v", suppressed)
	}
}

func TestPoolContractFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "poolcontract/bad", "github.com/tanklab/infless/internal/sim/prbad")
	checkWants(t, u, []*Analyzer{PoolContractAnalyzer})
}

func TestPoolContractAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "poolcontract/good", "github.com/tanklab/infless/internal/sim/prgood")
	checkWants(t, u, []*Analyzer{PoolContractAnalyzer})
}

func TestPoolContractSuppression(t *testing.T) {
	u := loadCorpus(t, "poolcontract/suppress", "github.com/tanklab/infless/internal/sim/prsupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{PoolContractAnalyzer})
	if len(active) != 0 {
		t.Fatalf("want no active diagnostics, got %v", active)
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "poolcontract" {
		t.Fatalf("want one suppressed poolcontract finding, got %v", suppressed)
	}
}

// syncPoolContracts is the corpus override for the sync.Pool shape:
// zzPool is a plain pool, zzXferPool declares channel sends as
// ownership transfers.
var syncPoolContracts = []PoolContract{
	{Kind: PoolScheduled,
		TypePkg: "internal/simclock", TypeName: "Event",
		AcquireFuncs: []string{"Clock.ScheduleAt", "Clock.ScheduleAfter"},
		Why:          "corpus"},
	{Kind: PoolSync, PoolVar: "zzPool", Why: "corpus"},
	{Kind: PoolSync, PoolVar: "zzXferPool", TransferViaSend: true, Why: "corpus"},
}

func TestPoolContractSyncFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "poolcontract/syncbad", "github.com/tanklab/infless/internal/gateway/pcsbad")
	u.Pools = syncPoolContracts
	checkWants(t, u, []*Analyzer{PoolContractAnalyzer})
}

func TestPoolContractSyncAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "poolcontract/syncgood", "github.com/tanklab/infless/internal/gateway/pcsgood")
	u.Pools = syncPoolContracts
	checkWants(t, u, []*Analyzer{PoolContractAnalyzer})
}

// snapshotContractsCorpus declares the corpus types' COW contracts; the
// corpus also contains an uncontracted rogue type the analyzer must
// flag on its own.
var snapshotContractsCorpus = []SnapshotContract{
	{Pkg: "internal/gateway", Type: "table", Field: "v", Mutex: "mu", Why: "corpus"},
	{Pkg: "internal/gateway", Type: "list", Field: "v", Mutex: "mu", Why: "corpus"},
}

func TestAtomicSnapshotFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "atomicsnapshot/bad", "github.com/tanklab/infless/internal/gateway/asbad")
	u.Snapshots = snapshotContractsCorpus
	checkWants(t, u, []*Analyzer{AtomicSnapshotAnalyzer})
}

func TestAtomicSnapshotAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "atomicsnapshot/good", "github.com/tanklab/infless/internal/gateway/asgood")
	u.Snapshots = snapshotContractsCorpus
	checkWants(t, u, []*Analyzer{AtomicSnapshotAnalyzer})
}

// TestAtomicSnapshotSuppression: the justified in-place patch is
// silenced; the stale directive on a clean read is reported.
func TestAtomicSnapshotSuppression(t *testing.T) {
	u := loadCorpus(t, "atomicsnapshot/suppress", "github.com/tanklab/infless/internal/gateway/assupp")
	u.Snapshots = snapshotContractsCorpus[:1] // the corpus declares only table; a list row would be stale
	active, suppressed := RunAllDetail(u, []*Analyzer{AtomicSnapshotAnalyzer})
	if len(active) != 1 {
		t.Fatalf("want exactly the stale-directive diagnostic, got %v", active)
	}
	if active[0].Analyzer != "directive" || !strings.Contains(active[0].Message, "suppresses nothing") {
		t.Errorf("expected unused-directive diagnostic, got %s", active[0])
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "atomicsnapshot" {
		t.Fatalf("want one suppressed atomicsnapshot finding, got %v", suppressed)
	}
}

// TestStaleContractRows: a PoolContracts or SnapshotContracts row that
// no longer resolves is reported instead of silently switching its rule
// off, like a stale ChannelContracts row.
func TestStaleContractRows(t *testing.T) {
	cases := []struct {
		name, corpus, path string
		set                func(u *Unit)
		analyzer           *Analyzer
		want               string
	}{
		{"renamed sync pool", "poolcontract/syncgood", "github.com/tanklab/infless/internal/gateway/pcstale",
			func(u *Unit) { u.Pools = []PoolContract{{Kind: PoolSync, PoolVar: "zzRenamedPool", Why: "corpus"}} },
			PoolContractAnalyzer, "stale PoolContract: zzRenamedPool does not resolve"},
		{"renamed scheduled type", "poolcontract/good", "github.com/tanklab/infless/internal/sim/prstale",
			func(u *Unit) {
				u.Pools = []PoolContract{{Kind: PoolScheduled, TypePkg: "internal/simclock", TypeName: "Evnt",
					AcquireFuncs: []string{"Clock.ScheduleAt", "Clock.ScheduleAfter"}, Why: "corpus"}}
			},
			PoolContractAnalyzer, "stale PoolContract: *simclock.Evnt does not resolve in internal/simclock"},
		{"unresolved writer mutex", "atomicsnapshot/good", "github.com/tanklab/infless/internal/gateway/asstale",
			func(u *Unit) {
				u.Snapshots = []SnapshotContract{{Pkg: "internal/gateway", Type: "table", Field: "v", Mutex: "writeMu", Why: "corpus"}}
			},
			AtomicSnapshotAnalyzer, "stale SnapshotContract: table.v (writer mutex writeMu) does not resolve in internal/gateway"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := loadCorpus(t, tc.corpus, tc.path)
			tc.set(u)
			var stale []Diagnostic
			for _, d := range RunAll(u, []*Analyzer{tc.analyzer}) {
				if strings.Contains(d.Message, "stale ") {
					stale = append(stale, d)
				}
			}
			if len(stale) != 1 || !strings.Contains(stale[0].Message, tc.want) {
				t.Fatalf("want one stale-row diagnostic containing %q, got %v", tc.want, stale)
			}
		})
	}
}

func TestHotAllocFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "hotalloc/bad", "github.com/tanklab/infless/internal/gateway/habad")
	checkWants(t, u, []*Analyzer{HotAllocAnalyzer})
}

func TestHotAllocAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "hotalloc/good", "github.com/tanklab/infless/internal/gateway/hagood")
	checkWants(t, u, []*Analyzer{HotAllocAnalyzer})
}

func TestHotAllocSuppression(t *testing.T) {
	u := loadCorpus(t, "hotalloc/suppress", "github.com/tanklab/infless/internal/gateway/hasupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{HotAllocAnalyzer})
	if len(active) != 0 {
		t.Fatalf("want no active diagnostics, got %v", active)
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "hotalloc" {
		t.Fatalf("want one suppressed hotalloc finding, got %v", suppressed)
	}
}

// TestHotAllocDirectiveMisuse: //lint:hotpath on anything that is not a
// function declaration is a diagnosed mistake, not a silent no-op. (The
// diagnostic lands on the directive's own line, so this is asserted
// directly rather than through want comments.)
func TestHotAllocDirectiveMisuse(t *testing.T) {
	u := loadCorpus(t, "hotalloc/misuse", "github.com/tanklab/infless/internal/gateway/hamis")
	diags := RunAll(u, []*Analyzer{HotAllocAnalyzer})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "applies only to function declarations") {
		t.Fatalf("want one misplaced-directive diagnostic, got %v", diags)
	}
}

// TestAnalyzerRoster pins the registered analyzer set: a new analyzer
// must be added here deliberately, and none may silently drop out.
func TestAnalyzerRoster(t *testing.T) {
	want := []string{"wallclock", "maporder", "singledef", "serverscan",
		"lockedcallback", "lockorder", "atomicsnapshot", "poolcontract",
		"hotalloc", "errflow", "goroutinelife", "chanlife", "ctxflow"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}

func TestErrFlowFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "errflow/bad", "github.com/tanklab/infless/internal/gateway/efbad")
	checkWants(t, u, []*Analyzer{ErrFlowAnalyzer})
}

func TestErrFlowAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "errflow/good", "github.com/tanklab/infless/internal/gateway/efgood")
	checkWants(t, u, []*Analyzer{ErrFlowAnalyzer})
}

func TestErrFlowIgnoresOutOfScopePackages(t *testing.T) {
	// The same error-dropping corpus under a data-plane path (the sim's
	// error handling has its own conventions) yields nothing.
	u := loadCorpus(t, "errflow/bad", "github.com/tanklab/infless/internal/sim/efbad")
	if diags := RunAll(u, []*Analyzer{ErrFlowAnalyzer}); len(diags) != 0 {
		t.Fatalf("expected no diagnostics out of scope, got %v", diags)
	}
}

func TestErrFlowSuppression(t *testing.T) {
	u := loadCorpus(t, "errflow/suppress", "github.com/tanklab/infless/internal/gateway/efsupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{ErrFlowAnalyzer})
	if len(active) != 0 {
		t.Fatalf("want no active diagnostics, got %v", active)
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "errflow" {
		t.Fatalf("want one suppressed errflow finding, got %v", suppressed)
	}
}

// TestUnusedDirectiveOutsideRunSet: a directive naming an analyzer that
// is not part of the run is left alone, so partial runs stay quiet.
func TestUnusedDirectiveOutsideRunSet(t *testing.T) {
	u := loadCorpus(t, "lockorder/suppress", "github.com/tanklab/infless/internal/gateway/losupp2")
	active, _ := RunAllDetail(u, []*Analyzer{ErrFlowAnalyzer})
	if len(active) != 0 {
		t.Fatalf("directives naming un-run analyzers must not be reported, got %v", active)
	}
}

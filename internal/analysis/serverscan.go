package analysis

// serverscan forbids per-server iteration of the cluster — both
// Cluster.Servers() (now a snapshot copy, since the shard refactor ended
// the borrowed-slice leak) and Cluster.EachServer — from the scheduler.
// PR 3 replaced scheduleOne's linear scan over the server list with the
// cluster's free-capacity index (BestFit/FirstFit, today sharded) — a
// 123x win on the 2,000-server cluster — and the only way to regress it
// is to reach for full-inventory iteration again. Reads elsewhere
// (reporting, benchmarks, baselines) are legitimate. The ban is a
// ForbiddenCalls row (invariants.go).

// ServerScanAnalyzer implements the serverscan check.
var ServerScanAnalyzer = &Analyzer{
	Name: "serverscan",
	Doc:  "forbid Cluster.Servers()/EachServer scans in the scheduler; use BestFit/FirstFit",
	Run:  func(ix *funcIndex) []Diagnostic { return forbiddenCalls(ix, "serverscan", nil) },
}

// Code generated by go run repro/internal/lint/genregistry from docs/operations.md. DO NOT EDIT.

package faults

// Registry maps every documented failpoint name to the site it
// guards, generated from the failpoint matrix in docs/operations.md.
// The failpointcheck analyzer (internal/lint) rejects faults.Eval
// plants whose name is missing here and, in whole-program runs,
// registrations that are planted nowhere — so editing the docs table
// and regenerating is the only way to add or retire a failpoint.
var Registry = map[string]string{
	"wal/append":             "synchronous WAL append entry (replica apply only)",
	"wal/append-write":       "WAL record/batch write (supports `torn`; replica apply and group commit)",
	"wal/fsync":              "replica-apply WAL fsync under `-wal-sync always`",
	"wal/rollback":           "post-failure truncate",
	"wal/group-enqueue":      "group-commit sequence assignment (under the store lock)",
	"wal/group-fsync":        "group-commit batch fsync under `-wal-sync always`",
	"endpoint/ingest-read":   "`/ingest` request-body read",
	"snapshot/write":         "checkpoint serialisation",
	"fsx/write":              "atomic-file write",
	"fsx/rename":             "atomic-file rename (crash window)",
	"colpack/open":           "packed-snapshot open at boot",
	"replica/fetch-snapshot": "replica bootstrap fetch",
	"replica/tail":           "replica tail request",
	"primary/tail-serve":     "primary's record streaming (supports `torn`)",
	"endpoint/serialize":     "result serialisation",
}

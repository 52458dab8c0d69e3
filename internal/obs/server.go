// Server-plane observability: the metric families of the inventory session
// server (internal/server, cmd/rfidserver). The server reuses the campaign
// observability plane — its per-session protocol events flow through
// MetricsTracer into the same Registry, and /metrics is WritePrometheus
// over that registry — so these names cover only what the campaign plane
// cannot see: the HTTP request ladder, the durable
// checkpoint store, startup recovery and lifecycle evictions.
package obs

// Registry names of the server plane. WritePrometheus exposes them under
// the rfid_ namespace with '.' mangled to '_' (for example
// "server.recovery.quarantined" serves as
// rfid_server_recovery_quarantined_total).
const (
	// Request ladder.
	MetricServerRequests           = "server.requests"
	MetricServerRequestErrors      = "server.request_errors"
	MetricServerRejectBackpressure = "server.rejected.backpressure"
	MetricServerRejectRatelimit    = "server.rejected.ratelimit"
	MetricServerRejectDraining     = "server.rejected.draining"
	HistServerStepBatch            = "server.step_batch"

	// Session lifecycle.
	MetricServerSessionsCreated     = "server.sessions.created"
	MetricServerSessionsDeleted     = "server.sessions.deleted"
	MetricServerSessionsPoisoned    = "server.sessions.poisoned"
	MetricServerSessionsReactivated = "server.sessions.reactivated"
	MetricServerEvictIdle           = "server.evictions.idle"
	MetricServerSteps               = "server.steps"

	// Durable checkpoint store.
	MetricServerCheckpointWrites = "server.checkpoint.writes"
	MetricServerCheckpointErrors = "server.checkpoint.errors"
	MetricServerCheckpointBytes  = "server.checkpoint.bytes"

	// Startup recovery ladder (the rfid_server_recovery_* families the
	// durability contract pins).
	MetricServerRecoveryScanned       = "server.recovery.scanned"
	MetricServerRecoveryRecovered     = "server.recovery.recovered"
	MetricServerRecoveryQuarantined   = "server.recovery.quarantined"
	MetricServerRecoveryReplayedSteps = "server.recovery.replayed_steps"

	// Invariant audit (must stay zero; non-zero means a protocol or the
	// replay machinery broke the no-duplicate/no-phantom contract).
	MetricServerDupIdents = "server.invariant.dup_idents"
	MetricServerPhantoms  = "server.invariant.phantoms"
)

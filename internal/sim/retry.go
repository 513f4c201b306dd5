package sim

// The one transient-failure retry schedule: the shim's secure-I/O and
// domain-setup hypercalls, the migration transfer channel and capture's
// swap reads all back off on the *simulated* clock, so the schedule is part
// of the deterministic machine.

// RetryAttempts is the number of retries after the first try.
const RetryAttempts = 3

// RetryBackoff is the simulated-cycle pause before retry n (0-based):
// 20k, 40k, 80k cycles.
func RetryBackoff(n int) Cycles { return 20_000 << n }

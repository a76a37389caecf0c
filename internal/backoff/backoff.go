// Package backoff holds the retry-delay spread shared by every retry
// loop in the daemon: the store committer's commit retries, the
// degraded-mode recovery probe and the replication client's fetch
// retries.
package backoff

import (
	"math/rand/v2"
	"time"
)

// Jitter spreads a retry delay over [d/2, d), so a fleet of daemons
// failing on a shared fault (a full volume, a down primary) does not
// retry in lockstep and stampede whatever just recovered. Delays of
// at most 1ns pass through unchanged.
func Jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(d-half)
}

//go:build race

package temporalkcore_test

// Under -race, sync.Pool drops items at random, so allocation counts of
// pooled paths are noise there.
func init() { raceEnabled = true }

//go:build !race

package posting

// raceEnabled is false outside race builds: PutShares leaves a released
// slice's contents as they are.
const raceEnabled = false

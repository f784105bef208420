//go:build race

package posting

// raceEnabled makes PutShares poison what it is given: a race build is
// where the tests hunt for a slice read after its release, and a
// poisoned one fails the join or the oracle instead of passing with
// whatever its next owner wrote.
const raceEnabled = true

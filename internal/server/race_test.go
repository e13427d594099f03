//go:build race

package server

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a share of its Puts at random: an allocation count is not a property
// of the code there.
const raceEnabled = true

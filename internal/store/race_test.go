//go:build race

package store

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Puts on purpose, so allocation counts through pooled buffers are
// meaningless there.
const raceEnabled = true

package tcp

import "tlt/internal/transport"

// Scoreboards is the free list of scoreboard backing arrays the senders
// of one event loop share (ShareScoreboards); see transport.Backings.
type Scoreboards = transport.Backings[segment]

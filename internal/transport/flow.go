package transport

import "tlt/internal/stats"

// Flow describes one transfer.
type Flow = stats.Flow

// MSS is the modeled maximum segment payload in bytes, matching the
// paper's ns-3 setup (1 kB payload packets).
const MSS = 1000

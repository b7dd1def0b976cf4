package transport_test

import (
	"testing"
	"unsafe"

	"tlt/internal/transport/dcqcn"
	"tlt/internal/transport/hpcc"
	"tlt/internal/transport/tcp"
)

// TestSenderSizes pins the senders under the allocation size classes the
// one reliability core must keep them in: a sender that crosses a class
// edge costs every grid slot that many more bytes per queue pair or
// connection, enough to move leafspine-roce's alloc_mb by most of a
// percent. hpcc.Sender sat exactly on its 512-byte edge when the core
// took over tcp.
func TestSenderSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"hpcc.Sender", unsafe.Sizeof(hpcc.Sender{}), 512},
		{"dcqcn.Sender", unsafe.Sizeof(dcqcn.Sender{}), 768},
		{"tcp.Sender", unsafe.Sizeof(tcp.Sender{}), 704},
	} {
		t.Logf("%s: %d B", c.name, c.size)
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte size class", c.name, c.size, c.max)
		}
	}
}

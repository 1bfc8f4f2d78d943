package serve

import (
	"bytes"
	"sync"
)

// scratch is the request-scoped working set of the prioritize handler's
// JSON encoding: the response buffer and the quoting scratch. Pooling
// it is the sim.Runner idiom applied to serving — in steady state a
// request reuses buffers already grown to its dag's high-water mark
// instead of reallocating them, and make bench-serve-smoke gates the
// resulting allocs/op.
type scratch struct {
	buf  bytes.Buffer
	qbuf []byte // strconv.Append* scratch
}

// maxPooledBuf caps the response buffer a pooled scratch may retain.
// One SDSS-sized response (~2 MiB) is worth keeping warm; anything
// larger is dropped so a single huge dag cannot pin memory for the rest
// of the process lifetime.
const maxPooledBuf = 4 << 20

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{qbuf: make([]byte, 0, 64)}
	},
}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	if s.buf.Cap() > maxPooledBuf {
		return
	}
	s.buf.Reset()
	scratchPool.Put(s)
}

package netx

import (
	"io"
	"sync"
)

// copyBufferSize is the size of the buffers Copy draws from its pool —
// io.Copy's own default, and the mux frame payload limit.
const copyBufferSize = 32 << 10

var copyBuffers = sync.Pool{New: func() any { return new([copyBufferSize]byte) }}

// Copy copies from src to dst until EOF or an error, like io.Copy, through
// a buffer taken from a pool shared by every relay in the process.
//
// It never hands off to io.ReaderFrom or io.WriterTo: *net.TCPConn
// implements both, and for a peer that is not another socket its generic
// fallback allocates a fresh 32 KiB buffer per copy, which io.CopyBuffer
// would call instead of using the buffer it was given. Each Read is
// therefore at most copyBufferSize bytes and is written whole before the
// next Read, exactly as io.Copy does between two plain connections.
func Copy(dst io.Writer, src io.Reader) (written int64, err error) {
	buf := copyBuffers.Get().(*[copyBufferSize]byte)
	defer copyBuffers.Put(buf)
	for {
		nr, rerr := src.Read(buf[:])
		if nr > 0 {
			nw, werr := dst.Write(buf[:nr])
			if nw < 0 || nw > nr {
				nw = 0
				if werr == nil {
					werr = io.ErrShortWrite
				}
			}
			written += int64(nw)
			if werr != nil {
				return written, werr
			}
			if nw != nr {
				return written, io.ErrShortWrite
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				return written, nil
			}
			return written, rerr
		}
	}
}

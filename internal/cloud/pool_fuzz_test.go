package cloud

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// stallGrace is how long FuzzServeConn lets the pool sit on unread
// input before it cancels. Only a getwork that waits on outstanding work
// stops reading; with one connection the only outstanding job is the
// connection's own, and a getwork while holding it drops the connection,
// so the grace is a backstop, not a path the protocol takes.
const stallGrace = 50 * time.Millisecond

// fuzzConn is the pool's end of a fuzzed worker connection over
// net.Pipe. Reads return the fuzzed input; once it is used up, the next
// read closes consumed and waits on the pipe, whose peer never writes,
// until the connection closes. serveConn reads only when it has handled
// every complete message already read, so consumed means the pool has
// acted on the whole input. Writes go to the pipe's drained peer.
type fuzzConn struct {
	net.Conn
	in       *bytes.Reader
	consumed chan struct{}
	once     sync.Once
}

func (c *fuzzConn) Read(b []byte) (int, error) {
	if c.in.Len() > 0 {
		return c.in.Read(b)
	}
	c.once.Do(func() { close(c.consumed) })
	return c.Conn.Read(b)
}

// FuzzServeConn serves the fuzzed bytes as one worker connection of a
// closed lease-less pool with three queued jobs and cancels the context
// once the input is read. Whatever the bytes, serveConn returns, no job
// is left issued once the connection has ended (otherwise nothing could
// ever requeue it), no more than the queued jobs resolve, every
// delivered result names a queued job, and the pool reports drained
// only when each queued job has a result.
func FuzzServeConn(f *testing.F) {
	const jobs = 3
	f.Fuzz(func(t *testing.T, in []byte) {
		p := NewPool(makeJobs(jobs))
		p.Close()
		srv, peer := net.Pipe()
		conn := &fuzzConn{Conn: srv, in: bytes.NewReader(in), consumed: make(chan struct{})}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		served := make(chan struct{})
		go func() {
			defer close(served)
			p.serveConn(ctx, conn)
			conn.Close()
		}()
		peerDone := make(chan struct{})
		go func() {
			defer close(peerDone)
			io.Copy(io.Discard, peer) // ends when the pipe closes
		}()
		select {
		case <-conn.consumed:
		case <-served:
		case <-time.After(stallGrace):
		}
		cancel()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn did not return after cancellation")
		}
		peer.Close()
		<-peerDone

		p.mu.Lock()
		stranded := len(p.issued)
		p.mu.Unlock()
		if stranded > 0 {
			t.Fatalf("%d jobs left issued after the only connection ended", stranded)
		}
		s := p.Stats()
		resolved := s.JobsDone + s.JobsFailed
		if resolved > jobs {
			t.Fatalf("%d jobs resolved of %d queued: %+v", resolved, jobs, s)
		}
		// Every recorded result counts once toward done or failed and
		// is delivered once, so exactly resolved results arrive.
		delivered := make(map[uint64]bool)
		for i := 0; i < resolved; i++ {
			r := <-p.Results()
			if r.JobID < 1 || r.JobID > jobs {
				t.Fatalf("delivered a result for job %d, which was never queued", r.JobID)
			}
			if delivered[r.JobID] {
				t.Fatalf("delivered two results for job %d", r.JobID)
			}
			delivered[r.JobID] = true
		}
		if p.drained() && len(delivered) != jobs {
			t.Fatalf("pool reports drained with results for %d of %d queued jobs", len(delivered), jobs)
		}

		// Resolve the rest so the pool drains and closes its results
		// channel.
		for id := uint64(1); id <= jobs; id++ {
			p.record(Result{JobID: id})
		}
		for range p.Results() {
		}
	})
}

package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
)

// countingListener is the net.Listener handed to service.RunCoordinator
// so the pool can be measured from outside: it counts every byte read
// from and written to an accepted connection, and it accepts eagerly,
// so set-up can wait until each worker has dialed before the
// coordinator starts serving.
type countingListener struct {
	inner  net.Listener
	conns  chan net.Conn
	closed chan struct{}
	done   chan struct{}
	notify chan struct{}
	once   sync.Once

	mu  sync.Mutex
	err error

	dialed  atomic.Int64
	in, out atomic.Int64
}

// newCountingListener wraps inner. backlog is the number of accepted
// connections held until the pool asks for them: the worker count.
func newCountingListener(inner net.Listener, backlog int) *countingListener {
	l := &countingListener{
		inner:  inner,
		conns:  make(chan net.Conn, backlog),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
		notify: make(chan struct{}, 1),
	}
	go l.acceptLoop()
	return l
}

func (l *countingListener) acceptLoop() {
	defer close(l.done)
	for {
		c, err := l.inner.Accept()
		if err != nil {
			l.mu.Lock()
			l.err = err
			l.mu.Unlock()
			return
		}
		l.dialed.Add(1)
		select {
		case l.notify <- struct{}{}:
		default:
		}
		select {
		case l.conns <- &countingConn{Conn: c, l: l}:
		case <-l.closed:
			c.Close()
			return
		}
	}
}

// Accept returns the next connection the accept loop took.
func (l *countingListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		select {
		case c := <-l.conns:
			return c, nil
		default:
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		return nil, l.err
	}
}

// Close stops accepting, waits for the accept loop to exit and closes
// connections nobody took. It is safe to call more than once.
func (l *countingListener) Close() error {
	var err error
	l.once.Do(func() {
		close(l.closed)
		err = l.inner.Close()
		<-l.done
		for {
			select {
			case c := <-l.conns:
				c.Close()
			default:
				return
			}
		}
	})
	return err
}

func (l *countingListener) Addr() net.Addr { return l.inner.Addr() }

// waitDialed blocks until n peers have connected or ctx ends.
func (l *countingListener) waitDialed(ctx context.Context, n int64) error {
	for l.dialed.Load() < n {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-l.done:
			if l.dialed.Load() < n {
				return net.ErrClosed
			}
		case <-l.notify:
		}
	}
	return nil
}

// countingConn adds the bytes it moves to its listener's totals.
type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.out.Add(int64(n))
	return n, err
}

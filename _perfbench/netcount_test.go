package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"
)

func TestCountingListenerCountsExactBytes(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := newCountingListener(inner, 2)
	defer ln.Close()

	const in, out = 100_003, 7_919
	var conns []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ln.waitDialed(ctx, 2); err != nil {
		t.Fatalf("waitDialed before any Accept: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := conns[0].Write(bytes.Repeat([]byte{'x'}, in))
		if err == nil {
			_, err = io.ReadFull(conns[0], make([]byte, out))
		}
		done <- err
	}()
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(srv, make([]byte, in)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write(bytes.Repeat([]byte{'y'}, out)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if got := ln.in.Load(); got != in {
		t.Errorf("counted %d bytes in, want %d", got, in)
	}
	if got := ln.out.Load(); got != out {
		t.Errorf("counted %d bytes out, want %d", got, out)
	}
	if got := ln.dialed.Load(); got != 2 {
		t.Errorf("counted %d dials, want 2", got)
	}
}

func TestCountingListenerAcceptFailsAfterClose(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := newCountingListener(inner, 1)
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("Accept after Close returned a connection")
	}
}

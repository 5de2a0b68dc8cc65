package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// forwarder is a loopback TCP relay that counts payload bytes. Every
// client of a daemon — the harness's own and the coordinator binary —
// connects through one, so wire bytes are measured the same way for all
// of them.
type forwarder struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64 // payload bytes, both directions

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newForwarder(target string) (*forwarder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &forwarder{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

func (f *forwarder) addr() string { return f.ln.Addr().String() }

func (f *forwarder) track(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conns == nil {
		return false
	}
	f.conns[c] = struct{}{}
	return true
}

func (f *forwarder) untrack(c net.Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
	c.Close()
}

func (f *forwarder) accept() {
	defer f.wg.Done()
	for {
		in, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", f.target)
		if err != nil {
			in.Close()
			continue
		}
		if !f.track(in) || !f.track(out) {
			in.Close()
			out.Close()
			return
		}
		f.wg.Add(2)
		go f.pipe(out, in)
		go f.pipe(in, out)
	}
}

// pipe copies src to dst, counting, and tears both ends down when the
// stream ends so the opposite pipe unblocks too.
func (f *forwarder) pipe(dst, src net.Conn) {
	defer f.wg.Done()
	_, _ = io.Copy(countingWriter{dst, &f.bytes}, src) // ends when either side closes
	f.untrack(src)
	f.untrack(dst)
}

// countingWriter adds to n as bytes pass, so a count read while
// keep-alive connections are still open is current.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// close stops accepting, severs every relayed connection and waits for
// the relay goroutines.
func (f *forwarder) close() {
	f.ln.Close()
	f.mu.Lock()
	conns := f.conns
	f.conns = nil
	f.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	f.wg.Wait()
}

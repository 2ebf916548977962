package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ifdb"
	"ifdb/internal/catalog"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// node is one in-process database served on a loopback socket: the
// benchmark's clients reach it only through real TCP connections.
type node struct {
	db   *ifdb.DB
	srv  *wire.Server
	addr string
	done chan struct{}
	// ln is set when the node's connections are tracked (see
	// trackedListener); nil otherwise.
	ln *trackedListener
}

// startNode serves a new database on a loopback socket. With track,
// the server accepts through a trackedListener.
func startNode(cfg ifdb.Config, track bool) (*node, error) {
	db, err := ifdb.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open database: %w", err)
	}
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{db: db, srv: wire.NewServer(db.Engine(), ""), addr: ln.Addr().String(), done: make(chan struct{})}
	if track {
		n.ln = &trackedListener{Listener: ln, open: map[*trackedConn]bool{}}
		ln = n.ln
	}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns when close stops the listener
	}()
	return n, nil
}

// trackedListener records which accepted connections are still open
// and whether the server has written to them. A connection the server
// never answers is an out-of-band CANCEL (or one not yet past its first
// frame); the server closes it once it has applied the cancel.
type trackedListener struct {
	net.Listener
	mu       sync.Mutex
	open     map[*trackedConn]bool
	accepted map[string]bool // remote addresses, recorded while a barrier waits
}

type trackedConn struct {
	net.Conn
	ln      *trackedListener
	written atomic.Bool
}

func (l *trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &trackedConn{Conn: c, ln: l}
	l.mu.Lock()
	l.open[tc] = true
	if l.accepted != nil {
		l.accepted[c.RemoteAddr().String()] = true
	}
	l.mu.Unlock()
	return tc, nil
}

func (c *trackedConn) Write(b []byte) (int, error) {
	if !c.written.Load() {
		c.written.Store(true)
	}
	return c.Conn.Write(b)
}

func (c *trackedConn) Close() error {
	c.ln.mu.Lock()
	delete(c.ln.open, c)
	c.ln.mu.Unlock()
	return c.Conn.Close()
}

// unanswered counts the open connections the server has not written to.
func (l *trackedListener) unanswered() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for c := range l.open {
		if !c.written.Load() {
			n++
		}
	}
	return n
}

// barrier returns once every connection made to the listener before
// the call has been accepted, and every accepted one the server has not
// answered has been closed: every CANCEL sent before the call has been
// applied. The accept loop takes connections in arrival order, so a
// fresh connection's acceptance means all earlier ones were accepted.
// It gives up at deadline.
func (l *trackedListener) barrier(deadline time.Time) {
	l.mu.Lock()
	l.accepted = map[string]bool{}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.accepted = nil
		l.mu.Unlock()
	}()
	c, err := net.DialTimeout("tcp", l.Addr().String(), time.Until(deadline))
	if err != nil {
		return
	}
	local := c.LocalAddr().String()
	waitFor(deadline, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.accepted[local]
	})
	c.Close()
	waitFor(deadline, func() bool { return l.unanswered() == 0 })
}

// waitFor polls cond until it holds or deadline passes.
func waitFor(deadline time.Time, cond func() bool) {
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
}

// close stops the listener, waits for the accept loop to end, and shuts
// the database down (final checkpoint for a durable node).
func (n *node) close() {
	_ = n.srv.Close()
	<-n.done
	_ = n.db.Close()
}

// startShards starts one node per shard and pins each to the rows it
// owns under a shard map; keys maps each sharded table to its key
// column, which must be the table's first column.
func startShards(count int, ifc bool, keys map[string]string) ([]*node, *wire.ShardMap, error) {
	var nodes []*node
	smap := &wire.ShardMap{Version: 1, Keys: keys}
	for i := 0; i < count; i++ {
		n, err := startNode(ifdb.Config{IFC: ifc}, true)
		if err != nil {
			closeNodes(nodes)
			return nil, nil, err
		}
		nodes = append(nodes, n)
		smap.Shards = append(smap.Shards, wire.Shard{ID: uint32(i), Primary: n.addr})
	}
	for i, n := range nodes {
		sid := uint32(i)
		n.srv.ShardMap = func() *wire.ShardMap { return smap }
		n.db.Engine().SetShardGuard(func(t *catalog.Table, row []types.Value) error {
			if smap.KeyColumn(t.Name) == "" || len(row) == 0 {
				return nil
			}
			if own := smap.ShardOf(row[0].String()); own != sid {
				return fmt.Errorf("key %s belongs to shard %d, not %d", row[0], own, sid)
			}
			return nil
		})
	}
	return nodes, smap, nil
}

func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

// shardOf is the shard owning integer key k.
func shardOf(smap *wire.ShardMap, k int64) uint32 {
	return smap.ShardOf(strconv.FormatInt(k, 10))
}

// heapBytes sums the sizes of the disk tables' heap files in dir.
func heapBytes(dir string) int64 {
	files, _ := filepath.Glob(filepath.Join(dir, "*.heap"))
	var n int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			n += st.Size()
		}
	}
	return n
}

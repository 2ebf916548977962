package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/types"
)

// countingListener counts the writes a server makes on the connections
// it accepts: one per flush of a connection's bufio.Writer that fits in
// its buffer.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// startTestServer serves a fresh IFC engine on a loopback listener and
// returns the engine, the address, and the server's write counter.
func startTestServer(t *testing.T) (*engine.Engine, string, *atomic.Int64) {
	t.Helper()
	eng := engine.MustNew(engine.Config{IFC: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes := new(atomic.Int64)
	srv := NewServer(eng, "")
	go srv.Serve(countingListener{Listener: ln, writes: writes})
	t.Cleanup(func() { srv.Close() })
	return eng, ln.Addr().String(), writes
}

// testConn speaks the protocol by hand, so a test sees every frame.
type testConn struct {
	t        *testing.T
	c        net.Conn
	r        *bufio.Reader
	w        *bufio.Writer
	sid, key uint64
}

func dialTest(t *testing.T, addr string) *testConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	tc := &testConn{t: t, c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
	tc.send(MsgHello, (&Hello{}).Encode())
	typ, payload, err := ReadFrame(tc.r)
	if err != nil || typ != MsgHelloOK {
		t.Fatalf("handshake: frame %c, err %v", typ, err)
	}
	ok, err := DecodeHelloOK(payload)
	if err != nil {
		t.Fatal(err)
	}
	tc.sid, tc.key = ok.SessionID, ok.CancelKey
	return tc
}

func (tc *testConn) send(typ byte, payload []byte) {
	tc.t.Helper()
	if err := WriteFrame(tc.w, typ, payload); err != nil {
		tc.t.Fatal(err)
	}
	if err := tc.w.Flush(); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testConn) prepare(sql string) uint64 {
	tc.t.Helper()
	tc.send(MsgPrepare, (&Prepare{SQL: sql}).Encode())
	typ, payload, err := ReadFrame(tc.r)
	if err != nil || typ != MsgPrepareRes {
		tc.t.Fatalf("prepare: frame %c, err %v", typ, err)
	}
	res, err := DecodePrepareRes(payload)
	if err != nil || res.Err != "" {
		tc.t.Fatalf("prepare %q: %v %v", sql, err, res)
	}
	return res.StmtID
}

func (tc *testConn) sendExecute(e *Execute) {
	tc.t.Helper()
	enc, err := e.Encode()
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.send(MsgExecute, enc)
}

// readResult reads one statement's ROWS frames, through the Done one.
// It reports errors instead of failing, so it may run off the test
// goroutine.
func (tc *testConn) readResult() ([]*RowsChunk, error) {
	var chunks []*RowsChunk
	for {
		typ, payload, err := ReadFrame(tc.r)
		if err != nil {
			return nil, err
		}
		if typ != MsgRows {
			return nil, fmt.Errorf("frame %c in a result stream", typ)
		}
		c, err := DecodeRowsChunk(payload)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		if c.Done {
			return chunks, nil
		}
	}
}

func (tc *testConn) execute(e *Execute) []*RowsChunk {
	tc.t.Helper()
	tc.sendExecute(e)
	chunks, err := tc.readResult()
	if err != nil {
		tc.t.Fatal(err)
	}
	return chunks
}

// cancel sends an out-of-band CANCEL naming the statement with trace
// ID traceID (zero: unscoped) and returns once the server has acted on
// it and closed the cancel connection.
func (tc *testConn) cancel(addr string, traceID uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	w := bufio.NewWriter(c)
	if err := WriteFrame(w, MsgCancel, (&Cancel{SessionID: tc.sid, CancelKey: tc.key, TraceID: traceID}).Encode()); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if _, err := io.ReadAll(c); err != nil {
		return err
	}
	return nil
}

func seedKV(t *testing.T, eng *engine.Engine, n int) {
	t.Helper()
	s := eng.NewSession(eng.Admin())
	if _, err := s.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO kv VALUES `)
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d)", k, 2*k)
	}
	if _, err := s.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
}

// TestShortResultOneFrame: a result shorter than the chunk size leaves
// the server as one ROWS frame — rows, trailer and all — in one write.
func TestShortResultOneFrame(t *testing.T) {
	eng, addr, writes := startTestServer(t)
	seedKV(t, eng, 10)
	tc := dialTest(t, addr)
	sel := tc.prepare(`SELECT v FROM kv WHERE k = $1`)

	cases := []struct {
		name       string
		e          *Execute
		cols, rows int
		affected   int64
		err        string
	}{
		{"1-row prepared SELECT", &Execute{StmtID: sel, Params: []types.Value{types.NewInt(7)}}, 1, 1, 0, ""},
		{"0-row SELECT", &Execute{SQL: `SELECT v FROM kv WHERE k = -1`}, 1, 0, 0, ""},
		{"UPDATE", &Execute{SQL: `UPDATE kv SET v = 0 WHERE k = 3`}, 0, 0, 1, ""},
		{"error", &Execute{SQL: `SELECT v FROM nosuch`}, 0, 0, 0, "nosuch"},
	}
	for _, c := range cases {
		before := writes.Load()
		chunks := tc.execute(c.e)
		if n := writes.Load() - before; n != 1 {
			t.Errorf("%s: %d server writes, want 1", c.name, n)
		}
		if len(chunks) != 1 {
			t.Errorf("%s: %d ROWS frames, want 1", c.name, len(chunks))
			continue
		}
		ch := chunks[0]
		if !ch.First || !ch.Done {
			t.Errorf("%s: First=%v Done=%v, want both", c.name, ch.First, ch.Done)
		}
		if len(ch.Cols) != c.cols || len(ch.Rows) != c.rows || ch.Affected != c.affected {
			t.Errorf("%s: %d columns, %d rows, %d affected; want %d, %d, %d", c.name,
				len(ch.Cols), len(ch.Rows), ch.Affected, c.cols, c.rows, c.affected)
		}
		if (c.err == "") != (ch.Err == "") || !strings.Contains(ch.Err, c.err) {
			t.Errorf("%s: error %q, want %q", c.name, ch.Err, c.err)
		}
	}
	if ch := tc.execute(cases[0].e)[0]; ch.Rows[0][0].Int() != 14 {
		t.Fatalf("point read returned %v, want 14", ch.Rows[0][0])
	}
}

// TestLongResultChunks: a 600-row result at 256 rows per chunk is two
// full chunks, each flushed as it is pulled, then the last 88 rows
// sharing the final frame with the trailer.
func TestLongResultChunks(t *testing.T) {
	eng, addr, writes := startTestServer(t)
	seedKV(t, eng, 600)
	tc := dialTest(t, addr)

	before := writes.Load()
	chunks := tc.execute(&Execute{SQL: `SELECT k FROM kv`, ChunkRows: 256})
	if len(chunks) != 3 {
		t.Fatalf("%d ROWS frames, want 3", len(chunks))
	}
	if n := writes.Load() - before; n != 3 {
		t.Errorf("%d server writes, want 3 (one per frame)", n)
	}
	want := []struct {
		rows        int
		first, done bool
	}{{256, true, false}, {256, false, false}, {88, false, true}}
	total := 0
	for i, ch := range chunks {
		if len(ch.Rows) != want[i].rows || ch.First != want[i].first || ch.Done != want[i].done {
			t.Errorf("frame %d: %d rows, First=%v Done=%v; want %+v", i, len(ch.Rows), ch.First, ch.Done, want[i])
		}
		total += len(ch.Rows)
	}
	if last := chunks[2]; last.Err != "" || len(last.RowLabels) != len(last.Rows) {
		t.Fatalf("final frame: err %q, %d labels for %d rows", last.Err, len(last.RowLabels), len(last.Rows))
	}
	if total != 600 {
		t.Fatalf("%d rows in all, want 600", total)
	}
}

// TestStaleCancelSparesNextStatement: a CANCEL that names a statement
// which has already finished must not touch the connection's next
// statement, even when it lands while that statement runs. A CANCEL
// naming the running statement, or naming none (an older client's),
// still interrupts it.
func TestStaleCancelSparesNextStatement(t *testing.T) {
	_, addr, _ := startTestServer(t)
	tc := dialTest(t, addr)

	const idA, idB = 0xA, 0xB
	if ch := tc.execute(&Execute{SQL: `SELECT 1`, TraceID: idA}); ch[0].Err != "" {
		t.Fatal(ch[0].Err)
	}
	tc.sendExecute(&Execute{SQL: `SELECT sleep(300)`, TraceID: idB})
	time.Sleep(50 * time.Millisecond) // let B start
	if err := tc.cancel(addr, idA); err != nil {
		t.Fatal(err)
	}
	chunks, err := tc.readResult()
	if err != nil {
		t.Fatal(err)
	}
	if msg := chunks[len(chunks)-1].Err; msg != "" {
		t.Fatalf("a CANCEL naming statement A killed statement B: %s", msg)
	}

	for _, scoped := range []bool{true, false} {
		const idC = 0xC
		tc.sendExecute(&Execute{SQL: `SELECT sleep(5000)`, TraceID: idC})
		done := make(chan error, 1)
		go func() {
			chunks, err := tc.readResult()
			if err == nil {
				if msg := chunks[len(chunks)-1].Err; !strings.Contains(msg, engine.ErrCanceled.Error()) {
					err = fmt.Errorf("statement ended with %q, want a cancel", msg)
				}
			}
			done <- err
		}()
		target := uint64(0)
		if scoped {
			target = idC
		}
		// Repeat the CANCEL until it lands: one sent before the server
		// has read the EXECUTE names a statement not yet running.
		var result error
		for waiting := true; waiting; {
			if err := tc.cancel(addr, target); err != nil {
				t.Fatal(err)
			}
			select {
			case result = <-done:
				waiting = false
			case <-time.After(20 * time.Millisecond):
			}
		}
		if result != nil {
			t.Fatalf("scoped=%v: %v", scoped, result)
		}
	}
}

// TestRowsEncodeAllocs pins the server's ROWS encode of a 1-row chunk:
// the connection's encode buffer is reused, so a frame allocates
// nothing once the buffer has grown.
func TestRowsEncodeAllocs(t *testing.T) {
	rw := &rowsWriter{w: bufio.NewWriter(io.Discard)}
	c := RowsChunk{
		First: true, Done: true, Cols: []string{"v"},
		Rows:      [][]types.Value{{types.NewInt(42)}},
		RowLabels: []label.Label{label.New(3)},
		Label:     label.New(3), Epoch: 1, LSN: 9,
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if err = rw.writeChunk(&c); err == nil {
			err = rw.w.Flush()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Fatalf("ROWS encode of a 1-row chunk: %v allocs, want 0", allocs)
	}
}

// TestCancelFrameTraceID: the CANCEL frame's trailing trace ID round
// trips, and a payload from an older client (no trace ID) still
// decodes, unscoped.
func TestCancelFrameTraceID(t *testing.T) {
	c := &Cancel{SessionID: 5, CancelKey: 6, TraceID: 7}
	got, err := DecodeCancel(c.Encode())
	if err != nil || *got != *c {
		t.Fatalf("Cancel: %+v %v", got, err)
	}
	got, err = DecodeCancel(c.Encode()[:16])
	if err != nil || got.SessionID != 5 || got.CancelKey != 6 || got.TraceID != 0 {
		t.Fatalf("old-format Cancel: %+v %v", got, err)
	}
	if _, err := DecodeCancel(c.Encode()[:12]); err == nil {
		t.Fatal("truncated Cancel accepted")
	}
	if _, _, err := ReadFrame(bufio.NewReader(strings.NewReader("\x05\x00"))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame header: %v, want io.ErrUnexpectedEOF", err)
	}
}

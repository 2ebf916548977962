package client_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
)

// bigResultServer starts a server with a table whose full SELECT is
// far larger than the loopback socket buffers (rows × payload ≈ 16MB),
// so the server's chunked stream write-blocks mid-result and a cancel
// can land between chunks.
func bigResultServer(t *testing.T) (*ifdb.DB, string) {
	t.Helper()
	db, addr := startServer(t, "")
	sess := db.AdminSession()
	if _, err := sess.Exec(`CREATE TABLE big (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("x", 8<<10)
	for i := 0; i < 2000; i++ {
		if _, err := sess.Exec(`INSERT INTO big VALUES ($1, $2)`, ifdb.Int(int64(i)), ifdb.Text(payload)); err != nil {
			t.Fatal(err)
		}
	}
	return db, addr
}

// TestConnCancelMidStream: the satellite scenario — the statement
// executes successfully, rows are already streaming, THEN the context
// is canceled between chunks. The server must notice at its next
// chunk boundary, abort the open transaction, and terminate the
// stream with an error the client folds into a wrapped
// context.Canceled; the connection survives (the cancel rode the
// out-of-band path and the server answered in-stream).
func TestConnCancelMidStream(t *testing.T) {
	_, addr := bigResultServer(t)
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Open an explicit transaction with a visible effect, so the
	// mid-stream abort is observable: the marker row must die with it.
	if _, err := conn.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`INSERT INTO big VALUES (999999, 'marker')`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := conn.QueryContext(ctx, `SELECT k, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	// Surface a few rows to prove the stream was live before the
	// cancel, then cancel and give the out-of-band CANCEL time to land
	// while the server is write-blocked mid-stream.
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("stream died after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	time.Sleep(200 * time.Millisecond)

	n := 5
	for rows.Next() {
		n++
	}
	serr := rows.Err()
	if serr == nil {
		t.Fatalf("canceled stream delivered all %d rows without error", n)
	}
	if !errors.Is(serr, context.Canceled) {
		t.Fatalf("stream error does not wrap context.Canceled: %v", serr)
	}
	if client.IsTransportError(serr) {
		t.Fatalf("clean mid-stream cancel classified as transport error: %v", serr)
	}
	if n >= 2000 {
		t.Fatalf("server streamed the whole result despite the cancel")
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close error = %v", err)
	}

	// The server aborted the explicit transaction mid-stream: COMMIT
	// has nothing to commit...
	if _, err := conn.Exec(`COMMIT`); err == nil {
		t.Fatal("COMMIT succeeded after the server aborted the transaction")
	}
	// ...the marker row died with it...
	res, err := conn.Exec(`SELECT COUNT(*) FROM big WHERE k = 999999`)
	if err != nil {
		t.Fatalf("conn dead after mid-stream cancel: %v", err)
	}
	var cnt int64
	if err := client.ScanValue(res.Rows[0][0], &cnt); err != nil {
		t.Fatal(err)
	}
	if cnt != 0 {
		t.Fatalf("marker row survived the aborted transaction")
	}
	// ...and the connection itself keeps working (asserted by the two
	// statements above executing at all).
}

// TestRouterCancelMidStream: the same scenario through the Router,
// asserting the pool discipline — a canceled statement's connection is
// retired, not repooled, because the out-of-band CANCEL may land after
// the session moves on and would kill the next borrower's statement.
func TestRouterCancelMidStream(t *testing.T) {
	_, addr := bigResultServer(t)
	r, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Warm the pool so the canceled statement borrows a pooled conn.
	if _, err := r.Exec(`SELECT COUNT(*) FROM big`); err != nil {
		t.Fatal(err)
	}
	if idle := r.IdleConns()[addr]; idle != 1 {
		t.Fatalf("warmup left %d idle conns, want 1", idle)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := r.QueryContext(ctx, `SELECT k, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("stream died after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	time.Sleep(200 * time.Millisecond)
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error does not wrap context.Canceled: %v", err)
	}
	rows.Close()

	// The canceled stream's connection must NOT be back in the pool.
	if idle := r.IdleConns()[addr]; idle != 0 {
		t.Fatalf("canceled statement's conn was repooled: %d idle", idle)
	}
	// The Router still works — the next statement dials fresh.
	if _, err := r.Exec(`SELECT COUNT(*) FROM big`); err != nil {
		t.Fatalf("router dead after cancel: %v", err)
	}
}

// TestLateCancelSparesNextStatement: a context canceled after the
// server finished its statement, but before the client read the
// trailer, still makes the watcher send an out-of-band CANCEL. That
// CANCEL names its own statement, so it must not kill the
// connection's next one when it lands while that one runs.
func TestLateCancelSparesNextStatement(t *testing.T) {
	db, addr := startServer(t, "")
	sess := db.AdminSession()
	if _, err := sess.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO kv VALUES (0)`)
	for k := 1; k < 300; k++ {
		fmt.Fprintf(&b, ", (%d)", k)
	}
	if _, err := sess.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		// 300 rows arrive as two ROWS frames; stop after the first row,
		// so the trailer is still unread when the context ends.
		rows, err := conn.QueryContext(ctx, `SELECT k FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("round %d: no rows: %v", round, rows.Err())
		}
		cancel()
		rows.Close()
		if _, err := conn.Exec(`SELECT sleep(100)`); err != nil {
			t.Fatalf("round %d: a late CANCEL killed the next statement: %v", round, err)
		}
	}
}

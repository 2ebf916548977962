package client_test

import (
	"bufio"
	"net"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/label"
	"ifdb/internal/wire"
)

// serveOneChunkResults runs a minimal server that answers every
// EXECUTE with the single ROWS frame reply: rows and trailer together,
// as a server sends any result shorter than its chunk size.
func serveOneChunkResults(t *testing.T, reply *wire.RowsChunk) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	enc, err := reply.Encode()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		for {
			typ, _, err := wire.ReadFrame(r)
			if err != nil {
				return
			}
			switch typ {
			case wire.MsgHello:
				err = wire.WriteFrame(w, wire.MsgHelloOK, (&wire.HelloOK{SessionID: 1, CancelKey: 2}).Encode())
			case wire.MsgExecute:
				err = wire.WriteFrame(w, wire.MsgRows, enc)
			default:
				return
			}
			if err != nil || w.Flush() != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestRowsOnDoneChunk: Exec and Query return every row a Done chunk
// carries, and the connection adopts the trailer's labels and commit
// token.
func TestRowsOnDoneChunk(t *testing.T) {
	lbl := label.New(5)
	reply := &wire.RowsChunk{
		First: true, Done: true, Cols: []string{"v"},
		Rows:      [][]client.Value{{ifdb.Int(1)}, {ifdb.Int(2)}, {ifdb.Int(3)}},
		RowLabels: []label.Label{lbl, lbl, lbl},
		Label:     lbl, Epoch: 4, LSN: 42,
	}
	conn, err := client.Dial(serveOneChunkResults(t, reply), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res, err := conn.Exec(`SELECT v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(res.RowLabels) != 3 || res.Rows[2][0].Int() != 3 {
		t.Fatalf("Exec returned %v (labels %v), want 3 rows", res.Rows, res.RowLabels)
	}
	if res.Epoch != 4 || res.LSN != 42 || len(res.Cols) != 1 {
		t.Fatalf("Exec trailer: epoch %d, LSN %d, cols %v", res.Epoch, res.LSN, res.Cols)
	}
	if !conn.Label().Equal(lbl) {
		t.Fatalf("connection label %v, want the trailer's %v", conn.Label(), lbl)
	}

	rows, err := conn.Query(`SELECT v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for rows.Next() {
		if !rows.RowLabel().Equal(lbl) {
			t.Fatalf("row label %v, want %v", rows.RowLabel(), lbl)
		}
		got = append(got, rows.Row()[0].Int())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Query iterated %v, want [1 2 3]", got)
	}
}

package client_test

import (
	"net"
	"strings"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/wire"
)

// startServer brings up a wire server over a fresh IFDB engine on a
// loopback listener.
func startServer(t testing.TB, token string) (*ifdb.DB, string) {
	t.Helper()
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	srv := wire.NewServer(db.Engine(), token)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return db, ln.Addr().String()
}

func TestEndToEnd(t *testing.T) {
	db, addr := startServer(t, "tok")
	admin := db.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE notes (id BIGINT PRIMARY KEY, body TEXT)`); err != nil {
		t.Fatal(err)
	}

	conn, err := client.Dial(addr, "tok", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Establish a principal and a tag over the wire.
	alice, err := conn.CreatePrincipal("alice")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetPrincipal(alice)
	tg, err := conn.CreateTag("alice_notes")
	if err != nil {
		t.Fatal(err)
	}

	// Contaminate (lazy sync), write, read back with labels.
	conn.AddSecrecy(tg)
	if _, err := conn.Exec(`INSERT INTO notes VALUES (1, 'secret note')`); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec(`SELECT body FROM notes WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "secret note" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if len(res.RowLabels) != 1 || !res.RowLabels[0].Equal(client.Label{tg}) {
		t.Fatalf("labels: %v", res.RowLabels)
	}

	// Server's post-statement label is adopted by the client.
	if !conn.Label().Equal(client.Label{tg}) {
		t.Fatalf("client label: %v", conn.Label())
	}
	if err := conn.Declassify(tg); err != nil {
		t.Fatal(err)
	}
	if !conn.Label().IsEmpty() {
		t.Fatalf("label after declassify: %v", conn.Label())
	}

	// A second connection with no label sees nothing.
	conn2, err := client.Dial(addr, "tok", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	res, err = conn2.Exec(`SELECT * FROM notes`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("unlabeled peer saw the note")
	}

	// Authority checks over the wire.
	ok, err := conn.HasAuthority(tg)
	if err != nil || !ok {
		t.Fatalf("has_authority: %v %v", ok, err)
	}
	ok, err = conn2.HasAuthority(tg)
	if err != nil || ok {
		t.Fatalf("peer has_authority: %v %v", ok, err)
	}

	// Delegation + revocation round trip.
	bob, err := conn2.CreatePrincipal("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Delegate(bob, tg); err != nil {
		t.Fatal(err)
	}
	conn2.SetPrincipal(bob)
	if ok, _ := conn2.HasAuthority(tg); !ok {
		t.Fatal("delegation did not reach bob")
	}
	if err := conn.Revoke(bob, tg); err != nil {
		t.Fatal(err)
	}
	if ok, _ := conn2.HasAuthority(tg); ok {
		t.Fatal("revocation did not take")
	}

	// Errors surface as errors with the server's message.
	if _, err := conn.Exec(`SELECT * FROM nonexistent`); err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("server error lost: %v", err)
	}
	if _, err := conn.LookupTag("missing"); err == nil {
		t.Fatal("missing tag lookup succeeded")
	}
}

func TestBadTokenRejected(t *testing.T) {
	_, addr := startServer(t, "right")
	if _, err := client.Dial(addr, "wrong", 0); err == nil {
		t.Fatal("bad token accepted")
	}
	// Correct token connects.
	conn, err := client.Dial(addr, "right", 0)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

func TestParamsOverWire(t *testing.T) {
	db, addr := startServer(t, "")
	if _, err := db.AdminSession().Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec(`INSERT INTO kv VALUES ($1, $2)`, client.Value(ifdb.Int(1)), client.Value(ifdb.Text("one"))); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec(`SELECT v FROM kv WHERE k = $1`, client.Value(ifdb.Int(1)))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Text() != "one" {
		t.Fatalf("param round trip: %+v %v", res, err)
	}
	// Transactions over the wire.
	if _, err := conn.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`INSERT INTO kv VALUES (2, 'two')`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	res, _ = conn.Exec(`SELECT COUNT(*) FROM kv`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("rollback over wire failed")
	}
}

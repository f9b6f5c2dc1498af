package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"streamdex/internal/chord"
	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/transport"
)

// newSimSession builds an apiSession over a simulated 4-node overlay with
// one random-walk stream per node. No transport node is involved: the
// do-func runs inline (the test goroutine is the serialization domain),
// which is exactly the decoupling apiSession exists to provide.
func newSimSession(t *testing.T) (*apiSession, *sim.Engine) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Space = dht.NewSpace(16)
	cfg.WindowSize = 16
	cfg.Coeffs = 3
	cfg.FeatureDims = 3
	cfg.Beta = 2
	cfg.MBRLifespan = 60 * sim.Second
	cfg.PushPeriod = 500 * sim.Millisecond
	cfg.Sketches = true
	eng := sim.NewEngine()
	net := chord.New(eng, chord.Config{Space: cfg.Space, HopDelay: 50 * sim.Millisecond, SuccListLen: 4})
	ids := chord.SortKeys(chord.UniformIDs(cfg.Space, 4))
	net.BuildStable(ids, nil)
	mw, err := core.New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := sim.NewRand(cfg.Seed)
	for i, id := range ids {
		st := stream.Stream{
			ID:     fmt.Sprintf("s%d", i),
			Gen:    stream.DefaultRandomWalk(root.Fork(fmt.Sprintf("walk-%d", i))),
			Period: 100 * sim.Millisecond,
		}
		if err := mw.DataCenter(id).RegisterStream(st); err != nil {
			t.Fatal(err)
		}
	}
	return &apiSession{mw: mw, self: ids[0], do: func(fn func()) { fn() }}, eng
}

// runCmd feeds one command line through the session and collects the
// replies it would have written to the connection.
func runCmd(s *apiSession, line string) (replies []string, quit bool) {
	quit = s.handle(func(format string, args ...any) {
		replies = append(replies, fmt.Sprintf(format, args...))
	}, strings.Fields(line))
	return replies, quit
}

// okID extracts the id from an "OK <id>" reply.
func okID(t *testing.T, replies []string) string {
	t.Helper()
	if len(replies) != 1 || !strings.HasPrefix(replies[0], "OK ") {
		t.Fatalf("want single OK reply, got %q", replies)
	}
	id := strings.TrimPrefix(replies[0], "OK ")
	if _, err := strconv.ParseUint(id, 10, 64); err != nil {
		t.Fatalf("OK reply carries non-numeric id %q", id)
	}
	return id
}

// TestRingStatsNamesMachine runs RINGSTATS against live transport nodes
// of both registered machine families and requires the first line to
// identify the routing machine, so operators can tell at a glance which
// control plane a node is running, and the reply to count the join-time
// sends (JOIN-STEPS: zero on a node that only created its ring).
func TestRingStatsNamesMachine(t *testing.T) {
	for _, machine := range []string{"chord", "koorde"} {
		t.Run(machine, func(t *testing.T) {
			tcfg := transport.DefaultConfig(42, "127.0.0.1:0")
			tcfg.Space = dht.NewSpace(16)
			tcfg.Machine = machine
			node, err := transport.New(tcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			node.Create()
			s := &apiSession{self: node.Self().ID, do: node.Do, node: node}
			replies, quit := runCmd(s, "RINGSTATS")
			if quit {
				t.Fatal("RINGSTATS closed the session")
			}
			if len(replies) == 0 || replies[0] != "MACHINE "+machine {
				t.Fatalf("want first reply %q, got %q", "MACHINE "+machine, replies)
			}
			if replies[len(replies)-1] != "END" {
				t.Fatalf("RINGSTATS reply not END-terminated: %q", replies)
			}
			found := false
			for _, r := range replies {
				found = found || r == "JOIN-STEPS 0"
			}
			if !found {
				t.Fatalf("RINGSTATS reply lacks %q: %q", "JOIN-STEPS 0", replies)
			}
		})
	}
}

func TestUnknownCommandErrWithoutDrop(t *testing.T) {
	s, _ := newSimSession(t)
	replies, quit := runCmd(s, "FROBNICATE 1 2 3")
	if quit {
		t.Fatal("unknown command closed the session")
	}
	if len(replies) != 1 || !strings.HasPrefix(replies[0], "ERR unknown command") {
		t.Fatalf("want one ERR unknown command reply, got %q", replies)
	}
	// The session must still answer afterwards.
	replies, quit = runCmd(s, "STREAMS")
	if quit || len(replies) == 0 || !strings.HasPrefix(replies[len(replies)-1], "END") {
		t.Fatalf("session dead after unknown command: %q", replies)
	}
}

// TestBadArgsErrWithoutDrop drives every verb with malformed arguments
// and requires the structured failure contract: exactly one "ERR ..."
// line, session stays open.
func TestBadArgsErrWithoutDrop(t *testing.T) {
	s, _ := newSimSession(t)
	lines := []string{
		"QUERY",
		"QUERY x 1 0,0,0",
		"QUERY 0.5 0 0,0,0",
		"QUERY 0.5 1 0,0",
		"QUERY 0.5 1 a,b,c",
		"MATCHES",
		"MATCHES abc",
		"SUB",
		"SUB x 0,0,0 1,1,1",
		"SUB 5 0,0 1,1,1",
		"SUB 5 0,0,0 a,b,c",
		"UNSUB",
		"UNSUB nope",
		"SUBMATCHES",
		"SUBMATCHES x",
		"AGG",
		"AGG a 10 5",
		"AGG 0 b 5",
		"AGG 0 10 -1",
		"AGGRESULT",
		"AGGRESULT x",
		"TOPK",
		"TOPK 0 0 10 5",
		"TOPK 2 x 10 5",
		"TOPK 2 0 y 5",
		"TOPK 2 0 10 0",
		"TOPKRESULT",
		"TOPKRESULT x",
		// Node-backed verbs on a simulator-only session.
		"RING",
		"RINGSTATS",
		"STATS",
	}
	for _, line := range lines {
		replies, quit := runCmd(s, line)
		if quit {
			t.Errorf("%q closed the session", line)
			continue
		}
		if len(replies) != 1 || !strings.HasPrefix(replies[0], "ERR ") {
			t.Errorf("%q: want one ERR reply, got %q", line, replies)
		}
	}
	// And after all that abuse the session still works.
	if replies, quit := runCmd(s, "STREAMS"); quit || len(replies) == 0 {
		t.Fatalf("session dead after bad-arg volley: %q", replies)
	}
}

func TestQuitRepliesBye(t *testing.T) {
	s, _ := newSimSession(t)
	replies, quit := runCmd(s, "QUIT")
	if !quit {
		t.Fatal("QUIT did not close the session")
	}
	if len(replies) != 1 || replies[0] != "BYE" {
		t.Fatalf("want BYE, got %q", replies)
	}
}

// TestSubscriptionLifecycle walks SUB -> SUBMATCHES -> UNSUB end to end
// over the simulated overlay.
func TestSubscriptionLifecycle(t *testing.T) {
	s, eng := newSimSession(t)
	eng.RunFor(5 * sim.Second)

	replies, _ := runCmd(s, "SUB 60 -1000,-1000,-1000 1000,1000,1000")
	id := okID(t, replies)
	eng.RunFor(5 * sim.Second)

	replies, quit := runCmd(s, "SUBMATCHES "+id)
	if quit {
		t.Fatal("SUBMATCHES closed the session")
	}
	last := replies[len(replies)-1]
	if !strings.HasPrefix(last, "END ") {
		t.Fatalf("SUBMATCHES did not end with END: %q", replies)
	}
	n, _ := strconv.Atoi(strings.TrimPrefix(last, "END "))
	if n == 0 || len(replies) != n+1 {
		t.Fatalf("want >0 matches and END agreeing with line count, got %q", replies)
	}
	for _, r := range replies[:n] {
		if !strings.HasPrefix(r, "MATCH ") {
			t.Fatalf("non-MATCH line before END: %q", r)
		}
	}

	if replies, _ := runCmd(s, "UNSUB "+id); len(replies) != 1 || replies[0] != "OK" {
		t.Fatalf("UNSUB: want OK, got %q", replies)
	}
}

// TestAggregateAndTopK exercises the windowed-aggregate and top-k verbs
// against live sketch traffic.
func TestAggregateAndTopK(t *testing.T) {
	s, eng := newSimSession(t)
	eng.RunFor(5 * sim.Second)

	replies, _ := runCmd(s, "AGG -1000 1000 60")
	aggID := okID(t, replies)
	replies, _ = runCmd(s, "TOPK 2 -1000 1000 60")
	topkID := okID(t, replies)
	eng.RunFor(5 * sim.Second)

	replies, quit := runCmd(s, "AGGRESULT "+aggID)
	if quit {
		t.Fatal("AGGRESULT closed the session")
	}
	if !strings.HasPrefix(replies[0], "COUNT ") {
		t.Fatalf("AGGRESULT must lead with COUNT: %q", replies)
	}
	count, _ := strconv.ParseUint(strings.TrimPrefix(replies[0], "COUNT "), 10, 64)
	if count == 0 {
		t.Fatalf("aggregate saw no stream values: %q", replies)
	}
	if !strings.HasPrefix(replies[len(replies)-1], "END ") {
		t.Fatalf("AGGRESULT did not end with END: %q", replies)
	}

	replies, quit = runCmd(s, "TOPKRESULT "+topkID)
	if quit {
		t.Fatal("TOPKRESULT closed the session")
	}
	if len(replies) < 2 || !strings.HasPrefix(replies[0], "RANK 1 ") {
		t.Fatalf("want at least one RANK line, got %q", replies)
	}
	if !strings.HasPrefix(replies[len(replies)-1], "END ") {
		t.Fatalf("TOPKRESULT did not end with END: %q", replies)
	}
}

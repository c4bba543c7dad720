package mpi

import (
	"testing"
	"time"
)

func TestRecvTimeout(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	c0 := w.MustComm(0)
	c1 := w.MustComm(1)

	start := time.Now()
	_, err := c1.RecvTimeout(0, 3, 50*time.Millisecond)
	if err != errTimeout {
		t.Fatalf("got %v want errTimeout", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("returned before the deadline")
	}

	if err := c0.Send(1, 3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	m, err := c1.RecvTimeout(0, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "late" {
		t.Fatalf("got %q", m.Data)
	}
}

func TestRecvTimeoutClosedWorld(t *testing.T) {
	w := MustWorld(2)
	c := w.MustComm(0)
	w.Close()
	if _, err := c.RecvTimeout(1, 0, time.Second); err != ErrClosed {
		t.Fatalf("got %v want ErrClosed", err)
	}
}

func TestTryRecvInproc(t *testing.T) {
	w := MustWorld(3)
	defer w.Close()
	c0 := w.MustComm(0)
	c1 := w.MustComm(1)
	c2 := w.MustComm(2)

	if _, ok, err := c1.TryRecv(0, 4); err != nil || ok {
		t.Fatalf("try-recv before send: %v %v", ok, err)
	}
	if err := c0.Send(1, 4, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(1, 4, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Source-specific match skips the non-matching message.
	m, ok, err := c1.TryRecv(2, 4)
	if err != nil || !ok || string(m.Data) != "b" || m.Src != 2 {
		t.Fatalf("try-recv src 2: %v %v %v", m, ok, err)
	}
	// Wildcard drains what remains, then reports empty.
	m, ok, err = c1.TryRecv(AnySource, AnyTag)
	if err != nil || !ok || string(m.Data) != "a" {
		t.Fatalf("wildcard try-recv: %v %v %v", m, ok, err)
	}
	if _, ok, err = c1.TryRecv(AnySource, AnyTag); err != nil || ok {
		t.Fatalf("drained mailbox still yields: %v %v", ok, err)
	}
	if _, _, err := c1.TryRecv(9, 0); err == nil {
		t.Fatal("bad src accepted")
	}
}

func TestTryRecvTCP(t *testing.T) {
	nodes := startTCPWorld(t, 2)
	c0, _ := nodes[0].WorldComm()
	c1, _ := nodes[1].WorldComm()
	if err := c0.Send(1, 2, []byte("t")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, ok, err := c1.TryRecv(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if string(m.Data) != "t" {
				t.Fatalf("got %q", m.Data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTryRecvClosed(t *testing.T) {
	w := MustWorld(2)
	c := w.MustComm(0)
	w.Close()
	if _, _, err := c.TryRecv(1, 0); err != ErrClosed {
		t.Fatalf("got %v want ErrClosed", err)
	}
}

func TestTryRecvThroughWrappers(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	var st CommStats
	c0 := w.MustComm(0)
	c1 := InstrumentComm(FaultyComm(w.MustComm(1), FaultPlan{Seed: 1, DupProb: 1e-9}), &st)
	if err := c0.Send(1, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := c1.TryRecv(0, 7)
	if err != nil || !ok || string(m.Data) != "x" {
		t.Fatalf("wrapped try-recv: %v %v %v", m, ok, err)
	}
	if st.RecvMessages.Load() != 1 {
		t.Fatalf("stats saw %d receives, want 1", st.RecvMessages.Load())
	}
}

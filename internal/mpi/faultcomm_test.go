package mpi

import (
	"fmt"
	"testing"
	"time"
)

// faultPair builds a 2-rank inproc world where rank 0's traffic is subject
// to the plan and rank 1 receives cleanly.
func faultPair(t *testing.T, plan FaultPlan) (*Comm, *Comm) {
	t.Helper()
	w := MustWorld(2)
	t.Cleanup(w.Close)
	return FaultyComm(w.MustComm(0), plan), w.MustComm(1)
}

// faultTrace records the fate of n sends under a plan by sending numbered
// messages and draining whatever arrives.
func faultTrace(t *testing.T, plan FaultPlan, n int) []string {
	t.Helper()
	sender, receiver := faultPair(t, plan)
	for i := 0; i < n; i++ {
		if err := sender.Send(1, 7, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// A final in-scope flush message plus the aged-hold backstop guarantee
	// held messages drain before we stop reading.
	var got []string
	for {
		m, err := receiver.RecvTimeout(0, 7, 2*holdFlushAge)
		if err != nil {
			break
		}
		got = append(got, string(m.Data))
	}
	return got
}

func TestFaultPlanDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 42, DropProb: 0.2, DupProb: 0.2, DelayProb: 0.3}
	a := faultTrace(t, plan, 40)
	b := faultTrace(t, plan, 40)
	if len(a) == 0 {
		t.Fatal("every message lost — plan too aggressive for the test")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same (seed, schedule) produced different traces:\n%v\n%v", a, b)
	}
	// A different seed must produce a different schedule (overwhelmingly
	// likely over 40 messages with these rates).
	c := faultTrace(t, FaultPlan{Seed: 43, DropProb: 0.2, DupProb: 0.2, DelayProb: 0.3}, 40)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFaultDropAndDup(t *testing.T) {
	got := faultTrace(t, FaultPlan{Seed: 7, DropProb: 0.5}, 30)
	if len(got) == 0 || len(got) >= 30 {
		t.Fatalf("drop plan delivered %d of 30", len(got))
	}
	seen := make(map[string]int)
	for _, g := range got {
		seen[g]++
		if seen[g] > 1 {
			t.Fatalf("drop-only plan duplicated %s", g)
		}
	}

	got = faultTrace(t, FaultPlan{Seed: 7, DupProb: 0.5}, 30)
	if len(got) <= 30 {
		t.Fatalf("dup plan delivered %d of 30, want > 30", len(got))
	}
}

func TestFaultDelayReorders(t *testing.T) {
	// Delay-only plan: everything arrives exactly once, and with a high
	// delay rate over many messages some arrive out of order.
	got := faultTrace(t, FaultPlan{Seed: 3, DelayProb: 0.6, MaxDelayHold: 3}, 40)
	if len(got) != 40 {
		t.Fatalf("delay plan delivered %d of 40", len(got))
	}
	inOrder := true
	seen := make(map[string]bool)
	for i, g := range got {
		if seen[g] {
			t.Fatalf("delay plan duplicated %s", g)
		}
		seen[g] = true
		if g != fmt.Sprintf("m%d", i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("delay plan delivered all 40 messages in order")
	}
}

func TestFaultPartitionWindow(t *testing.T) {
	// Drop sends 3..6 on the (0→1, tag 7) stream; everything else flows.
	plan := FaultPlan{
		Seed:       1,
		Partitions: []Partition{{From: 0, To: 1, Tag: 7, FromSeq: 3, ToSeq: 6}},
	}
	got := faultTrace(t, plan, 10)
	if len(got) != 7 {
		t.Fatalf("partition delivered %d of 10, want 7", len(got))
	}
	for _, g := range got {
		for i := 3; i < 6; i++ {
			if g == fmt.Sprintf("m%d", i) {
				t.Fatalf("partitioned message %s delivered", g)
			}
		}
	}
}

func TestFaultCrashPoint(t *testing.T) {
	plan := FaultPlan{
		Seed:    1,
		Crashes: []CrashPoint{{Rank: 0, Tag: 7, AfterSends: 3}},
	}
	sender, receiver := faultPair(t, plan)
	// The third matching send is still delivered...
	for i := 0; i < 3; i++ {
		if err := sender.Send(1, 7, []byte("x")); err != nil {
			t.Fatalf("send %d before crash: %v", i, err)
		}
	}
	// ...then the rank is dead for sends and receives.
	if err := sender.Send(1, 7, []byte("x")); err != ErrCrashed {
		t.Fatalf("send after crash: %v, want ErrCrashed", err)
	}
	if _, err := sender.Recv(1, AnyTag); err != ErrCrashed {
		t.Fatalf("recv after crash: %v, want ErrCrashed", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := receiver.RecvTimeout(0, 7, time.Second); err != nil {
			t.Fatalf("pre-crash message %d lost: %v", i, err)
		}
	}
	// Other ranks' sends don't count toward rank 0's crash point.
	if err := receiver.Send(0, 7, []byte("y")); err != nil {
		t.Fatalf("peer send: %v", err)
	}
}

func TestFaultScopeAndPassthrough(t *testing.T) {
	// Tag scoping: faults on tag 7 only; tag 8 is untouched.
	plan := FaultPlan{Seed: 9, DropProb: 1, Tags: []int{7}}
	sender, receiver := faultPair(t, plan)
	if err := sender.Send(1, 7, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(1, 8, []byte("safe")); err != nil {
		t.Fatal(err)
	}
	m, err := receiver.RecvTimeout(0, 8, time.Second)
	if err != nil || string(m.Data) != "safe" {
		t.Fatalf("out-of-scope message: %v %v", m, err)
	}
	if _, ok, _ := receiver.TryRecv(0, 7); ok {
		t.Fatal("in-scope message survived DropProb=1")
	}

	// Inactive plan returns the identical communicator.
	w := MustWorld(1)
	defer w.Close()
	c := w.MustComm(0)
	if FaultyComm(c, FaultPlan{Seed: 123}) != c {
		t.Fatal("inactive plan wrapped the comm")
	}
}

func TestFaultCollectivesSurvive(t *testing.T) {
	// Collective-protocol tags are reserved and must never be faulted, so
	// Barrier and Allgather work even under a total drop plan.
	w := MustWorld(3)
	defer w.Close()
	plan := FaultPlan{Seed: 5, DropProb: 1}
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		go func(r int) {
			c := FaultyComm(w.MustComm(r), plan)
			if err := c.Barrier(); err != nil {
				errs <- err
				return
			}
			parts, err := c.Allgather([]byte{byte(r)})
			if err == nil && len(parts) != 3 {
				err = fmt.Errorf("allgather returned %d parts", len(parts))
			}
			errs <- err
		}(r)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

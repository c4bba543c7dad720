package mpi

import (
	"testing"
	"time"
)

const recycleTag = 11

// pushBuf returns a fresh payload and its backing array's key.
func pushBuf(n int) ([]byte, *byte) {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b, arrayOf(b)
}

// wantReuse fails unless c's next Reuse hands out exactly the array key
// (nil: nothing), and puts a handed-out buffer back.
func wantReuse(t *testing.T, c *Comm, key *byte, when string) {
	t.Helper()
	b := c.Reuse()
	switch {
	case key == nil && b != nil:
		t.Fatalf("%s: Reuse handed out a buffer that is still out", when)
	case key != nil && b == nil:
		t.Fatalf("%s: Reuse handed out nothing, want the released payload", when)
	case key != nil && (len(b) != 0 || arrayOf(b) != key):
		t.Fatalf("%s: Reuse handed out len %d of another array, want the released payload emptied", when, len(b))
	}
	if key != nil {
		c.pool.mu.Lock()
		c.pool.free = append(c.pool.free, b)
		c.pool.mu.Unlock()
	}
}

// recvOne receives one recycleTag message at c.
func recvOne(t *testing.T, c *Comm) Message {
	t.Helper()
	m, err := c.RecvTimeout(AnySource, recycleTag, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drainFree empties c's free list after a Reuse-then-check sequence.
func drainFree(c *Comm) {
	for c.Reuse() != nil {
	}
}

func TestRecycleAfterEveryReceiverReleased(t *testing.T) {
	w := MustWorld(4)
	defer w.Close()
	c := w.Comms()
	wantReuse(t, c[0], nil, "before any multicast")
	buf, key := pushBuf(64)
	if err := c[0].Multicast([]int{1, 2, 3}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	msgs := []Message{recvOne(t, c[1]), recvOne(t, c[2]), recvOne(t, c[3])}
	wantReuse(t, c[0], nil, "no receiver released")
	msgs[0].Release()
	msgs[0].Release() // idempotent: it must not count for receiver 2
	msgs[1].Release()
	wantReuse(t, c[0], nil, "two of three receivers released, one twice")
	msgs[2].Release()
	wantReuse(t, c[0], key, "every receiver released")
	drainFree(c[0])
	msgs[2].Release()
	wantReuse(t, c[0], nil, "a released delivery released again")
}

func TestRecycleDormantUntilReuse(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	c := w.Comms()
	buf, _ := pushBuf(16)
	if err := c[0].Multicast([]int{1}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	recvOne(t, c[1]).Release()
	wantReuse(t, c[0], nil, "a Comm that never asked to Reuse keeps nothing")
	// Send copies: its message is the receiver's own and releases nothing.
	if err := c[0].Send(1, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	recvOne(t, c[1]).Release()
	wantReuse(t, c[0], nil, "after releasing a copied message")
}

func TestRecycleDuplicateHoldsItsOwnReference(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	c0 := FaultyComm(w.MustComm(0), FaultPlan{Seed: 1, DupProb: 1, Tags: []int{recycleTag}})
	c1 := w.MustComm(1)
	wantReuse(t, c0, nil, "start")
	buf, key := pushBuf(32)
	if err := c0.Multicast([]int{1}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	first, second := recvOne(t, c1), recvOne(t, c1)
	first.Release()
	wantReuse(t, c0, nil, "one copy of a duplicated delivery released")
	second.Release()
	wantReuse(t, c0, key, "both copies released")
}

func TestRecycleDelayedMessageHoldsReference(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	c0 := FaultyComm(w.MustComm(0), FaultPlan{Seed: 1, DelayProb: 1, MaxDelayHold: 1, Tags: []int{recycleTag}})
	c1 := w.MustComm(1)
	wantReuse(t, c0, nil, "start")
	buf, key := pushBuf(32)
	if err := c0.Multicast([]int{1}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	// Held behind the next send on its stream (or the flush backstop):
	// the sender has returned and no receiver holds it, yet it is out.
	wantReuse(t, c0, nil, "the only delivery is held")
	next, _ := pushBuf(32)
	if err := c0.Multicast([]int{1}, recycleTag, next); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, c1)
	if arrayOf(m.Data) != key {
		t.Fatal("the first push did not arrive first")
	}
	wantReuse(t, c0, nil, "delivered, not released")
	m.Release()
	wantReuse(t, c0, key, "the held push delivered and released")
}

func TestRecycleDroppedMessageTakesNoReference(t *testing.T) {
	w := MustWorld(3)
	defer w.Close()
	plan := FaultPlan{Partitions: []Partition{{From: 0, To: 1, Tag: recycleTag, FromSeq: 0, ToSeq: 100}}}
	c0 := FaultyComm(w.MustComm(0), plan)
	c2 := w.MustComm(2)
	wantReuse(t, c0, nil, "start")
	buf, key := pushBuf(32)
	if err := c0.Multicast([]int{1, 2}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	wantReuse(t, c0, nil, "the delivery to rank 2 is out")
	recvOne(t, c2).Release()
	wantReuse(t, c0, key, "the partitioned delivery never counted")
	drainFree(c0)
	wantReuse(t, c0, nil, "the payload is on the list once")

	// Every delivery dropped: the payload is back as Multicast returns.
	drop := FaultyComm(w.MustComm(0), FaultPlan{Seed: 3, DropProb: 1, Tags: []int{recycleTag}})
	drop.Reuse()
	buf, key = pushBuf(32)
	if err := drop.Multicast([]int{1, 2}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	wantReuse(t, drop, key, "every delivery dropped")
}

// TestRecycleSameArrayTwice: a sender may multicast one array again while
// it is out (the async cluster slave re-sends its kept pushes); it comes
// back once, after the deliveries of both sends are released, and a
// re-send of an array on the free list takes it off.
func TestRecycleSameArrayTwice(t *testing.T) {
	w := MustWorld(3)
	defer w.Close()
	c := w.Comms()
	wantReuse(t, c[0], nil, "start")
	buf, key := pushBuf(32)
	if err := c[0].Multicast([]int{1}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	if err := c[0].Multicast([]int{2}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	recvOne(t, c[1]).Release()
	wantReuse(t, c[0], nil, "the second send is still out")
	recvOne(t, c[2]).Release()
	wantReuse(t, c[0], key, "both sends released")
	drainFree(c[0])
	wantReuse(t, c[0], nil, "the array is on the list once")

	// Back on the list, then re-sent without Reuse: it is out again.
	if err := c[0].Multicast([]int{1}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	recvOne(t, c[1]).Release()
	if err := c[0].Multicast([]int{2}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	wantReuse(t, c[0], nil, "re-sent from the free list")
	recvOne(t, c[2]).Release()
	wantReuse(t, c[0], key, "the re-send released")
	drainFree(c[0])
	wantReuse(t, c[0], nil, "the array is on the list once")
}

// TestRecycleOverTCP: a frame written to a peer holds nothing once
// Multicast returns; a self-send queued in the inbox holds one reference.
func TestRecycleOverTCP(t *testing.T) {
	nodes := startTCPWorld(t, 2)
	c0, err := nodes[0].WorldComm()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := nodes[1].WorldComm()
	if err != nil {
		t.Fatal(err)
	}
	wantReuse(t, c0, nil, "start")
	buf, key := pushBuf(4096)
	if err := c0.Multicast([]int{1}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	wantReuse(t, c0, key, "the frame is on the wire")
	m := recvOne(t, c1)
	if len(m.Data) != len(buf) {
		t.Fatalf("peer got %d B, want %d", len(m.Data), len(buf))
	}
	m.Release() // read off the wire: a no-op

	drainFree(c0)
	buf, key = pushBuf(4096)
	if err := c0.Multicast([]int{0, 1}, recycleTag, buf); err != nil {
		t.Fatal(err)
	}
	wantReuse(t, c0, nil, "the self-send is queued")
	self := recvOne(t, c0)
	self.Release()
	wantReuse(t, c0, key, "the self-send released")
	recvOne(t, c1)
}

// TestHoldKeepsPayloadOffFreeList: a held payload stays out after every
// receiver released it, so its sender can multicast the bytes again, and
// joins the free list once the hold is released, only the first release
// counting.
func TestHoldKeepsPayloadOffFreeList(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	c := w.Comms()
	wantReuse(t, c[0], nil, "before any multicast")
	buf, key := pushBuf(64)
	release := c[0].Hold(buf)
	for i := 0; i < 2; i++ {
		if err := c[0].Multicast([]int{1}, recycleTag, buf); err != nil {
			t.Fatal(err)
		}
		recvOne(t, c[1]).Release()
		wantReuse(t, c[0], nil, "the receiver released a held payload")
	}
	release()
	wantReuse(t, c[0], key, "the hold was released")
	drainFree(c[0])
	release()
	wantReuse(t, c[0], nil, "a hold released twice")
}

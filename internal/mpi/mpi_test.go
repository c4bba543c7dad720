package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runRanks executes body once per rank of a fresh inproc world,
// concurrently, and fails the test on any returned error.
func runRanks(t *testing.T, n int, body func(c *Comm) error) {
	t.Helper()
	eachComm(t, worldComms(t, "inproc", n), body)
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("zero-size world accepted")
	}
	w := MustWorld(2)
	defer w.Close()
	if _, err := w.Comm(2); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := w.Comm(-1); err == nil {
		t.Fatal("negative rank accepted")
	}
	if got := len(w.Comms()); got != 2 {
		t.Fatalf("Comms len %d", got)
	}
}

func TestSendRecvBasic(t *testing.T) {
	runRanks(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		m, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(m.Data) != "hello" || m.Src != 0 || m.Tag != 7 {
			return fmt.Errorf("got %+v", m)
		}
		return nil
	})
}

func TestSendDoesNotAliasPayload(t *testing.T) {
	runRanks(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte("abc")
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			buf[0] = 'X' // must not affect the delivered message
			return c.Send(1, 2, nil)
		}
		m, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if _, err := c.Recv(0, 2); err != nil {
			return err
		}
		if string(m.Data) != "abc" {
			return fmt.Errorf("payload aliased: %q", m.Data)
		}
		return nil
	})
}

func TestRecvTagSelectivity(t *testing.T) {
	runRanks(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []byte("five")); err != nil {
				return err
			}
			return c.Send(1, 3, []byte("three"))
		}
		// Receive tag 3 first even though tag 5 arrived earlier.
		m3, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		m5, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(m3.Data) != "three" || string(m5.Data) != "five" {
			return fmt.Errorf("tag matching broken: %q %q", m3.Data, m5.Data)
		}
		return nil
	})
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	runRanks(t, 3, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 10+c.Rank(), []byte{byte(c.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			m, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if m.Tag != 10+m.Src || int(m.Data[0]) != m.Src {
				return fmt.Errorf("inconsistent message %+v", m)
			}
			seen[m.Src] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("sources seen: %v", seen)
		}
		return nil
	})
}

func TestFIFOPerPattern(t *testing.T) {
	runRanks(t, 2, func(c *Comm) error {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := c.Send(1, 4, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			m, err := c.Recv(0, 4)
			if err != nil {
				return err
			}
			if int(m.Data[0]) != i {
				return fmt.Errorf("message %d arrived out of order as %d", i, m.Data[0])
			}
		}
		return nil
	})
}

func TestSendRecvValidation(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	c := w.MustComm(0)
	if err := c.Send(5, 1, nil); err == nil {
		t.Fatal("bad dst accepted")
	}
	if err := c.Send(1, -2, nil); err == nil {
		t.Fatal("negative tag accepted")
	}
	if err := c.Send(1, maxUserTag, nil); err == nil {
		t.Fatal("reserved tag accepted")
	}
	if _, err := c.Recv(9, 0); err == nil {
		t.Fatal("bad src accepted")
	}
	if _, err := c.Recv(1, maxUserTag+5); err == nil {
		t.Fatal("reserved recv tag accepted")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	w := MustWorld(2)
	c := w.MustComm(0)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(1, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := c.Send(1, 0, nil); err == nil {
		t.Fatal("send after close accepted")
	}
}

func TestSendrecvExchange(t *testing.T) {
	runRanks(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		m, err := c.Sendrecv(other, other, 9, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if int(m.Data[0]) != other {
			return fmt.Errorf("rank %d received %d", c.Rank(), m.Data[0])
		}
		return nil
	})
}

func TestBarrierOrdering(t *testing.T) {
	// After the barrier, every rank must observe every other rank's
	// pre-barrier flag.
	n := 5
	flags := make([]int32, n)
	var mu sync.Mutex
	runRanks(t, n, func(c *Comm) error {
		mu.Lock()
		flags[c.Rank()] = 1
		mu.Unlock()
		if err := c.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for r, f := range flags {
			if f != 1 {
				return fmt.Errorf("rank %d saw rank %d unflagged after barrier", c.Rank(), r)
			}
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	runRanks(t, 4, func(c *Comm) error {
		var payload []byte
		if c.Rank() == 2 {
			payload = []byte("root-data")
		}
		got, err := c.Bcast(2, payload)
		if err != nil {
			return err
		}
		if string(got) != "root-data" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	// The binomial tree must deliver for every (size, root) combination.
	for n := 1; n <= 9; n++ {
		for root := 0; root < n; root++ {
			n, root := n, root
			runRanks(t, n, func(c *Comm) error {
				var payload []byte
				if c.Rank() == root {
					payload = []byte{byte(root), byte(n)}
				}
				got, err := c.Bcast(root, payload)
				if err != nil {
					return err
				}
				if len(got) != 2 || got[0] != byte(root) || got[1] != byte(n) {
					return fmt.Errorf("n=%d root=%d rank=%d got %v", n, root, c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestBcastRepeatedUsesDistinctTags(t *testing.T) {
	runRanks(t, 5, func(c *Comm) error {
		for round := 0; round < 10; round++ {
			var payload []byte
			if c.Rank() == round%5 {
				payload = []byte{byte(round)}
			}
			got, err := c.Bcast(round%5, payload)
			if err != nil {
				return err
			}
			if got[0] != byte(round) {
				return fmt.Errorf("round %d got %v", round, got)
			}
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	runRanks(t, 4, func(c *Comm) error {
		data := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1) // variable sizes
		parts, err := c.Gather(1, data)
		if err != nil {
			return err
		}
		if c.Rank() != 1 {
			if parts != nil {
				return fmt.Errorf("non-root got parts")
			}
			return nil
		}
		for r, p := range parts {
			if len(p) != r+1 {
				return fmt.Errorf("part %d has len %d", r, len(p))
			}
			for _, b := range p {
				if int(b) != r {
					return fmt.Errorf("part %d contains %d", r, b)
				}
			}
		}
		return nil
	})
}

func TestAllgatherVariableSizes(t *testing.T) {
	runRanks(t, 5, func(c *Comm) error {
		data := bytes.Repeat([]byte{byte('A' + c.Rank())}, 2*c.Rank())
		parts, err := c.Allgather(data)
		if err != nil {
			return err
		}
		if len(parts) != 5 {
			return fmt.Errorf("got %d parts", len(parts))
		}
		for r, p := range parts {
			if len(p) != 2*r {
				return fmt.Errorf("rank %d: part %d len %d", c.Rank(), r, len(p))
			}
			for _, b := range p {
				if b != byte('A'+r) {
					return fmt.Errorf("part %d content %q", r, p)
				}
			}
		}
		return nil
	})
}

func TestScatter(t *testing.T) {
	runRanks(t, 3, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 0 {
			parts = [][]byte{[]byte("zero"), []byte("one"), []byte("two")}
		}
		got, err := c.Scatter(0, parts)
		if err != nil {
			return err
		}
		want := []string{"zero", "one", "two"}[c.Rank()]
		if string(got) != want {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
}

func TestScatterWrongPartCount(t *testing.T) {
	// A root erroring out of a collective while peers entered it would be
	// an MPI-contract violation, so validate on a single-rank world.
	runRanks(t, 1, func(c *Comm) error {
		if _, err := c.Scatter(0, [][]byte{nil, nil}); err == nil {
			return fmt.Errorf("wrong part count accepted")
		}
		got, err := c.Scatter(0, [][]byte{[]byte("solo")})
		if err != nil {
			return err
		}
		if string(got) != "solo" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		want []float64
	}{
		{OpSum, []float64{0 + 1 + 2 + 3, 4 * 10}},
		{OpProd, []float64{0, 10 * 10 * 10 * 10}},
		{OpMax, []float64{3, 10}},
		{OpMin, []float64{0, 10}},
	}
	for _, tc := range cases {
		tc := tc
		runRanks(t, 4, func(c *Comm) error {
			in := []float64{float64(c.Rank()), 10}
			got, err := c.Reduce(0, in, tc.op)
			if err != nil {
				return err
			}
			if c.Rank() == 0 && !reflect.DeepEqual(got, tc.want) {
				return fmt.Errorf("op %d: got %v want %v", tc.op, got, tc.want)
			}
			if c.Rank() != 0 && got != nil {
				return fmt.Errorf("non-root got result")
			}
			return nil
		})
	}
}

func TestAllreduce(t *testing.T) {
	runRanks(t, 4, func(c *Comm) error {
		got, err := c.Allreduce([]float64{1, float64(c.Rank())}, OpSum)
		if err != nil {
			return err
		}
		want := []float64{4, 6}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("rank %d: %v want %v", c.Rank(), got, want)
		}
		return nil
	})
}

func TestReduceLengthMismatch(t *testing.T) {
	runRanks(t, 2, func(c *Comm) error {
		data := []float64{1}
		if c.Rank() == 1 {
			data = []float64{1, 2}
		}
		_, err := c.Reduce(0, data, OpSum)
		if c.Rank() == 0 && err == nil {
			return fmt.Errorf("length mismatch accepted")
		}
		return nil
	})
}

func TestEncodeDecodeFloats(t *testing.T) {
	xs := []float64{0, -1.5, 3.25e10}
	got, err := DecodeFloats(EncodeFloats(xs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, xs) {
		t.Fatalf("round trip %v", got)
	}
	if _, err := DecodeFloats([]byte{1, 2, 3}); err == nil {
		t.Fatal("bad length accepted")
	}
}

func TestPackUnpackParts(t *testing.T) {
	parts := [][]byte{[]byte("a"), nil, []byte("ccc")}
	got, err := unpackParts(packParts(parts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "a" || len(got[1]) != 0 || string(got[2]) != "ccc" {
		t.Fatalf("unpack: %v", got)
	}
	// The parts alias the packed buffer but are clipped to their own
	// length: growing one must not run into its successor.
	_ = append(got[0], 'X')
	if string(got[2]) != "ccc" || cap(got[0]) != 1 {
		t.Fatalf("append to part 0 reached part 2 (%q) or cap %d != 1", got[2], cap(got[0]))
	}
	if _, err := unpackParts(packParts(parts), 2); err == nil {
		t.Fatal("wrong count accepted")
	}
	if _, err := unpackParts([]byte{1}, 1); err == nil {
		t.Fatal("short buffer accepted")
	}
	p := packParts(parts)
	if _, err := unpackParts(p[:len(p)-1], 3); err == nil {
		t.Fatal("truncated part accepted")
	}
	if _, err := unpackParts(append(p, 0), 3); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCollectivesInterleavedWithP2P(t *testing.T) {
	// A user message with an ordinary tag must not be swallowed by a
	// collective running concurrently.
	runRanks(t, 3, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 99, []byte("user")); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := c.Allgather([]byte{byte(c.Rank())}); err != nil {
			return err
		}
		if c.Rank() == 1 {
			m, err := c.Recv(0, 99)
			if err != nil {
				return err
			}
			if string(m.Data) != "user" {
				return fmt.Errorf("user payload %q", m.Data)
			}
		}
		return nil
	})
}

// TestMulticastMatchesSends: Multicast is a Send to every destination in
// order — the same payload under the same tag on both transports, the same
// per-message fault decisions under a plan — except that it hands data
// over instead of copying it: in-process receivers of one Multicast share
// the sender's backing array, while a buffer passed to Send is the
// sender's own again once Send returns.
func TestMulticastMatchesSends(t *testing.T) {
	const n, tag = 4, 9
	dests := []int{2, 1, 3}
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			center := []byte("center")
			eachComm(t, worldComms(t, transport, n), func(c *Comm) error {
				if c.Rank() == 0 {
					if err := c.Multicast(dests, tag, center); err != nil {
						return err
					}
					buf := []byte("single")
					for _, d := range dests {
						if err := c.Send(d, tag+1, buf); err != nil {
							return err
						}
					}
					copy(buf, "XXXXXX")
					return nil
				}
				m, err := c.Recv(0, tag)
				if err != nil {
					return err
				}
				if string(m.Data) != "center" {
					return fmt.Errorf("rank %d received %q from Multicast", c.Rank(), m.Data)
				}
				if shared := &m.Data[0] == &center[0]; shared != (transport == "inproc") {
					return fmt.Errorf("rank %d: payload shares the sender's array = %v on %s", c.Rank(), shared, transport)
				}
				if m, err = c.Recv(0, tag+1); err == nil && string(m.Data) != "single" {
					err = fmt.Errorf("rank %d received %q from Send", c.Rank(), m.Data)
				}
				return err
			})
		})
	}
	faults := func(send func(c *Comm) error) (dups, delays uint64) {
		plan := FaultPlan{Seed: 5, DupProb: 0.5, DelayProb: 0.5, Stats: &FaultStats{}}
		w := MustWorld(n)
		defer w.Close()
		c := FaultyComm(w.MustComm(0), plan)
		for k := 0; k < 8; k++ {
			if err := send(c); err != nil {
				t.Fatal(err)
			}
		}
		return plan.Stats.Dups.Load(), plan.Stats.Delays.Load()
	}
	wantDups, wantDelays := faults(func(c *Comm) error {
		for _, d := range dests {
			if err := c.Send(d, tag, []byte("center")); err != nil {
				return err
			}
		}
		return nil
	})
	gotDups, gotDelays := faults(func(c *Comm) error { return c.Multicast(dests, tag, []byte("center")) })
	if wantDups+wantDelays == 0 || gotDups != wantDups || gotDelays != wantDelays {
		t.Fatalf("plan injected %d dups / %d delays into Multicast, %d / %d into the Send loop",
			gotDups, gotDelays, wantDups, wantDelays)
	}

	w := MustWorld(2)
	defer w.Close()
	if err := w.MustComm(0).Multicast([]int{2}, tag, nil); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := w.MustComm(0).Multicast([]int{1}, maxUserTag, nil); err == nil {
		t.Fatal("reserved tag accepted")
	}
}

// TestMailboxReleasesTaken: removing a message clears the slot it frees in
// the queue's backing array, so a taken payload — a whole center push, in
// training — is not kept alive by the mailbox until later traffic
// overwrites the slot.
func TestMailboxReleasesTaken(t *testing.T) {
	b := newMailbox()
	for i := 0; i < 3; i++ {
		if err := b.put(wireMsg{Comm: 1, Src: i, Tag: 2, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := b.tryTake(1, 1, 2); !ok || err != nil {
		t.Fatalf("tryTake: ok %v, err %v", ok, err)
	}
	for _, src := range []int{0, 2} {
		if _, err := b.take(1, src, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range b.queue[:cap(b.queue)] {
		if m.Data != nil {
			t.Fatalf("slot %d still references a taken payload", i)
		}
	}
}

package mpi

import (
	"sync"
	"testing"
	"time"
)

func BenchmarkInprocPingPong(b *testing.B) {
	w := MustWorld(2)
	defer w.Close()
	c0 := w.MustComm(0)
	c1 := w.MustComm(1)
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			m, err := c1.Recv(0, 1)
			if err != nil {
				b.Error(err)
				return
			}
			if err := c1.Send(0, 2, m.Data); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c0.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c0.Recv(1, 2); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

func BenchmarkTCPPingPong(b *testing.B) {
	nodes := make([]*TCPNode, 2)
	addrs := make([]string, 2)
	for r := 0; r < 2; r++ {
		node, err := ListenTCP(r, 2, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		nodes[r] = node
		addrs[r] = node.Addr()
		defer node.Close()
	}
	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd *TCPNode) {
			defer wg.Done()
			if err := nd.Connect(addrs, 5*time.Second); err != nil {
				b.Error(err)
			}
		}(nd)
	}
	wg.Wait()
	c0, _ := nodes[0].WorldComm()
	c1, _ := nodes[1].WorldComm()
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			m, err := c1.Recv(0, 1)
			if err != nil {
				b.Error(err)
				return
			}
			if err := c1.Send(0, 2, m.Data); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c0.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c0.Recv(1, 2); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

// runCollective drives one collective call on every rank concurrently.
func runCollective(b *testing.B, comms []*Comm, f func(c *Comm) error) {
	b.Helper()
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			if err := f(c); err != nil {
				b.Error(err)
			}
		}(c)
	}
	wg.Wait()
}

func BenchmarkBarrier16(b *testing.B) {
	w := MustWorld(16)
	defer w.Close()
	comms := w.Comms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCollective(b, comms, func(c *Comm) error { return c.Barrier() })
	}
}

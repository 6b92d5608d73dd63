package par

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// SMVPOverlapped computes y = K·x with the restructured kernel the
// paper's footnote 1 describes but the Quake applications did not
// implement: each PE computes its boundary rows first, posts their
// partial sums to its neighbors, computes its interior rows while the
// messages are in flight, and only then waits for incoming partials.
// Interior computation hides the exchange.
//
// Unlike the phased SMVP, whose PEs meet at a barrier between the
// computation and exchange phases, this variant lets PEs proceed
// independently between the boundary computation and the receive: the
// only cross-PE synchronization is the preallocated per-neighbor ready
// channel signaled when a message buffer is complete. The kernel runs
// on the same persistent PEs and workspaces as SMVP — no goroutines
// are spawned and nothing is allocated in steady state.
//
// The returned Timing attributes boundary+interior work to Compute and
// post+receive (including any wait) to Comm; like SMVP's, it is owned
// by the Dist and overwritten by the next kernel call.
func (d *Dist) SMVPOverlapped(y, x []float64) (*Timing, error) {
	if len(x) != 3*d.GlobalNodes || len(y) != 3*d.GlobalNodes {
		return nil, fmt.Errorf("par: SMVPOverlapped needs vectors of length %d, got %d/%d",
			3*d.GlobalNodes, len(x), len(y))
	}
	d.rt.met.smvps.Add(1)
	return d.rt.runKernel(d.rt.overlapBody, y, x, 0, nil)
}

// overlappedPE is the per-PE body of the overlapped kernel. Message
// delivery is the ready-channel signal: the receiver then reads the
// sender's buffer in place. Each directed pair carries exactly one
// message per invocation and every receive is drained before the done
// barrier, so the capacity-1 channels and the send buffers are clean
// for reuse by the next kernel.
func (rt *peRuntime) overlappedPE(pe int) {
	ws := &rt.ws[pe]
	nodes := rt.nodes[pe]
	x, y := rt.x, rt.y
	fi, iter := rt.fi, rt.iter
	for l, g := range nodes {
		copy(ws.x[3*l:3*l+3], x[3*g:3*g+3])
	}

	// Boundary rows first.
	sp := obs.StartSpanPE("compute", "par.overlap.boundary", pe)
	t0 := time.Now()
	rt.k[pe].MulVecRows(ws.y, ws.x, rt.boundary[pe])
	boundaryDur := time.Since(t0)
	sp.End()

	// Fault hook before the posts: a PE that dies here has promised
	// messages its neighbors will wait for — the containment in runBody
	// releases their ready channels.
	if fi != nil {
		fi.AfterCompute(pe, iter)
	}

	// Post partials while interior work remains.
	sp = obs.StartSpanPE("exchange", "par.overlap.post", pe)
	t0 = time.Now()
	var sent int64
	for k, locals := range rt.shared[pe] {
		buf := ws.send[k]
		for s, l := range locals {
			copy(buf[3*s:3*s+3], ws.y[3*l:3*l+3])
		}
		if fi != nil {
			fi.CorruptSend(pe, int(rt.neighbors[pe][k]), iter, buf)
		}
		rt.ws[rt.neighbors[pe][k]].ready[ws.rev[k]] <- struct{}{}
		n := bytesPerSharedNode * int64(len(locals))
		sent += n
		rt.met.msgBytes.Observe(n)
	}
	postDur := time.Since(t0)
	rt.met.exchBytes[pe].Add(sent)
	rt.met.exchMsgs.Add(int64(len(rt.shared[pe])))
	sp.End()

	// Interior rows overlap the exchange.
	sp = obs.StartSpanPE("compute", "par.overlap.interior", pe)
	t0 = time.Now()
	rt.k[pe].MulVecRows(ws.y, ws.x, rt.interior[pe])
	interiorDur := time.Since(t0)
	sp.End()

	// Receive and accumulate.
	sp = obs.StartSpanPE("exchange", "par.overlap.recv", pe)
	t0 = time.Now()
	var recvd int64
	for k, nbr := range rt.neighbors[pe] {
		<-ws.ready[k]
		buf := rt.ws[nbr].send[ws.rev[k]]
		locals := rt.shared[pe][k]
		reps := 1
		if fi != nil {
			reps = fi.Deliver(int(nbr), pe, iter)
		}
		for ; reps > 0; reps-- {
			for s, l := range locals {
				ws.y[3*l] += buf[3*s]
				ws.y[3*l+1] += buf[3*s+1]
				ws.y[3*l+2] += buf[3*s+2]
			}
			recvd += bytesPerSharedNode * int64(len(locals))
		}
	}
	recvDur := time.Since(t0)
	rt.met.exchBytes[pe].Add(recvd)
	sp.End()

	for l, g := range nodes {
		if rt.owner[g] != int32(pe) {
			continue
		}
		copy(y[3*g:3*g+3], ws.y[3*l:3*l+3])
	}
	rt.tm.Compute[pe] = boundaryDur + interiorDur
	rt.tm.Comm[pe] = postDur + recvDur
	rt.met.observeCompute(pe, iter, rt.tm.Compute[pe])
	rt.met.observeExchange(pe, iter, rt.tm.Comm[pe])
}

// BoundaryFraction returns, for each PE, the fraction of its local
// block rows that are boundary rows — a quick gauge of how much work is
// available to hide communication behind (1 − fraction of interior).
func (d *Dist) BoundaryFraction() []float64 {
	out := make([]float64, d.P)
	for i := 0; i < d.P; i++ {
		total := len(d.Boundary[i]) + len(d.Interior[i])
		if total > 0 {
			out[i] = float64(len(d.Boundary[i])) / float64(total)
		}
	}
	return out
}

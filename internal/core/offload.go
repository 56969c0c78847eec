package core

import (
	"draid/internal/blockdev"
	"draid/internal/cpu"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/sim"
	"draid/internal/simnet"
)

// This file implements the §7 discussion point: "the host-side controller
// can also be offloaded to a storage server." The dRAID controller keeps
// running on the fabric's coordinator node, which a cluster built with
// Spec.OffloadController places on its first storage server, beside that
// server's members; a thin client reaches it through one more NVMe-oF hop.
// The client's NIC then carries exactly 1× the user bytes in every state — at
// the price of the extra hop's latency and a new single point of failure,
// the trade-off the paper calls out. With every member on that server, this
// is Table 1's single-machine array.

// OffloadGateway terminates client block I/O on the controller's node and
// drives the local HostController.
type OffloadGateway struct {
	eng   *sim.Engine
	host  *HostController
	conn  *simnet.Conn
	node  *simnet.Node
	core  *cpu.Core
	costs cpu.Costs
}

// OffloadClient is the thin initiator: a blockdev.Device whose operations
// are forwarded to the remote controller.
type OffloadClient struct {
	eng  *sim.Engine
	node *simnet.Node
	conn *simnet.Conn
	gw   *OffloadGateway
	size int64
}

// NewOffload splits the array's entry point: clientNode gains a
// blockdev.Device whose I/O crosses one NVMe-oF hop to host's node, where
// the gateway executes it. host must live on the fabric's coordinator node
// (the storage server now carrying the controller).
func NewOffload(eng *sim.Engine, net *simnet.Network, clientNode *simnet.Node, host *HostController, costs cpu.Costs) *OffloadClient {
	// Offload is a simulation-only experiment (§7): it reaches through to
	// the concrete simulated fabric for its client↔coordinator hop.
	fab := host.fab.(*Fabric)
	conn := net.Connect(clientNode, fab.HostNode())
	gw := &OffloadGateway{
		eng: eng, host: host, conn: conn, node: fab.HostNode(),
		core: cpu.NewCore(eng), costs: costs,
	}
	return &OffloadClient{eng: eng, node: clientNode, conn: conn, gw: gw, size: host.Size()}
}

// Size implements blockdev.Device.
func (c *OffloadClient) Size() int64 { return c.size }

// Read implements blockdev.Device: request capsule over, payload back. The
// gateway hands the host's result buffer on to cb, which owns it from then.
func (c *OffloadClient) Read(off, n int64, cb func(parity.Buffer, error)) {
	if err := blockdev.CheckRange(off, n, c.size); err != nil {
		c.eng.Defer(func() { cb(parity.Buffer{}, err) })
		return
	}
	req := nvmeof.Command{Opcode: nvmeof.OpRead, Offset: off, Length: n}
	c.conn.Send(c.node, int64(req.EncodedSize()), func() {
		c.gw.core.Exec(c.gw.costs.PerUser, func() {
			c.gw.host.Read(off, n, func(b parity.Buffer, err error) {
				c.gw.core.Exec(c.gw.costs.PerMsg, func() {
					c.conn.Send(c.gw.node, int64(b.Len())+64, func() {
						cb(b, err)
					})
				})
			})
		})
	})
}

// Write implements blockdev.Device: payload travels with the request.
func (c *OffloadClient) Write(off int64, data parity.Buffer, cb func(error)) {
	if err := blockdev.CheckRange(off, int64(data.Len()), c.size); err != nil {
		c.eng.Defer(func() { cb(err) })
		return
	}
	req := nvmeof.Command{Opcode: nvmeof.OpWrite, Offset: off, Length: int64(data.Len())}
	c.conn.Send(c.node, int64(req.EncodedSize())+int64(data.Len()), func() {
		c.gw.core.Exec(c.gw.costs.PerUser, func() {
			c.gw.host.Write(off, data, func(err error) {
				c.gw.core.Exec(c.gw.costs.PerMsg, func() {
					c.conn.Send(c.gw.node, 64, func() {
						cb(err)
					})
				})
			})
		})
	})
}

var _ blockdev.Device = (*OffloadClient)(nil)

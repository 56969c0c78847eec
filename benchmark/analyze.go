package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"draid/internal/nvmeof"
)

// traceFileOps bounds how many user ops' spans the trace file holds; the
// per-layer metrics are computed over every op of the traced window.
const traceFileOps = 1000

// link stamps every span with its user op (through the command-ID table the
// host decorator filled), derives the server spans, and returns all spans
// that belong to a completed op, ordered by op then start.
func link(spans []span, cmdOp map[uint64]uint32) []span {
	done := map[uint32]bool{}
	for _, s := range spans {
		if s.kind == spanOp {
			done[s.op] = true
		}
	}
	out := spans[:0:0]
	for _, s := range spans {
		if s.kind != spanOp {
			s.op = cmdOp[s.cmd]
		}
		if done[s.op] {
			out = append(out, s)
		}
	}
	out = append(out, deriveServerSpans(out)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].op != out[j].op {
			return out[i].op < out[j].op
		}
		return out[i].start < out[j].start
	})
	return out
}

// deriveServerSpans builds one server span per (node, command ID): from the
// first delivery of a capsule of that command to the node until the last
// capsule of that command leaves it.
func deriveServerSpans(spans []span) []span {
	type key struct {
		node int8
		cmd  uint64
	}
	type ends struct {
		in, out int64
		op      uint32
		hasIn   bool
		hasOut  bool
	}
	m := map[key]*ends{}
	get := func(k key) *ends {
		e := m[k]
		if e == nil {
			e = &ends{}
			m[k] = e
		}
		return e
	}
	for _, s := range spans {
		if s.kind != spanSend {
			continue
		}
		if s.node >= 0 { // delivered to a target
			e := get(key{s.node, s.cmd})
			if !e.hasIn || s.end < e.in {
				e.in, e.hasIn, e.op = s.end, true, s.op
			}
		}
		if s.from >= 0 { // sent by a target
			e := get(key{s.from, s.cmd})
			if !e.hasOut || s.start > e.out {
				e.out, e.hasOut = s.start, true
			}
		}
	}
	var out []span
	for k, e := range m {
		if e.hasIn && e.hasOut && e.out >= e.in {
			out = append(out, span{kind: spanServer, start: e.in, end: e.out, cmd: k.cmd, op: e.op, node: k.node})
		}
	}
	return out
}

// layerMetrics computes the traced pass's per-layer numbers from linked
// spans (ordered by op). userBytes is the window's verified user bytes.
func layerMetrics(res *result, linked []span, userBytes float64) {
	var ops, hostSpan, hostSelf float64
	var readLat, writeLat, serverDur, deliverDur, driveDur []uint32
	var servers, serverSelf, capsules, peerBytes, deliver float64
	var driveOps, driveRead, driveWrite, driveTime float64

	for i := 0; i < len(linked); {
		j := i
		for j < len(linked) && linked[j].op == linked[i].op {
			j++
		}
		group := linked[i:j]
		i = j
		var op *span
		children := make([]interval, 0, len(group))
		for k := range group {
			s := &group[k]
			d := uint32(s.end - s.start)
			switch s.kind {
			case spanOp:
				op = s
				continue
			case spanSend:
				capsules++
				deliver += float64(d)
				deliverDur = append(deliverDur, d)
				if s.from >= 0 && s.node >= 0 {
					peerBytes += float64(s.bytes)
				}
			case spanDrive:
				driveOps++
				driveTime += float64(d)
				driveDur = append(driveDur, d)
				if s.code == 1 {
					driveRead += float64(s.bytes)
				} else {
					driveWrite += float64(s.bytes)
				}
			case spanServer:
				servers++
				serverDur = append(serverDur, d)
				var inner []interval
				for _, c := range group {
					if c.cmd == s.cmd && c.node == s.node && (c.kind == spanDrive || c.kind == spanSend) {
						inner = append(inner, c.interval())
					}
				}
				serverSelf += float64(selfTime(s.interval(), inner))
			}
			children = append(children, s.interval())
		}
		if op == nil {
			continue
		}
		ops++
		hostSpan += float64(op.end - op.start)
		hostSelf += float64(selfTime(op.interval(), children))
		if op.code == 1 {
			readLat = append(readLat, uint32(op.end-op.start))
		} else {
			writeLat = append(writeLat, uint32(op.end-op.start))
		}
	}
	if ops == 0 {
		return
	}
	n := int(ops)
	us := func(ns float64) float64 { return ns / 1e3 }
	res.set("host.span_us_per_op", us(hostSpan/ops), n)
	res.set("host.self_us_per_op", us(hostSelf/ops), n)
	for _, l := range []struct {
		name string
		lat  []uint32
	}{{"read", readLat}, {"write", writeLat}} {
		slices.Sort(l.lat)
		res.set("host."+l.name+"_p50_us", us(percentile(l.lat, 0.5)), len(l.lat))
		for _, q := range []struct {
			name string
			q    float64
		}{{"p99", 0.99}, {"p999", 0.999}} {
			if tailSupported(len(l.lat), q.q) {
				res.set("host."+l.name+"_"+q.name+"_us", us(percentile(l.lat, q.q)), len(l.lat))
			}
		}
	}
	slices.Sort(serverDur)
	slices.Sort(deliverDur)
	slices.Sort(driveDur)
	res.set("server.cmds_per_op", servers/ops, n)
	res.set("server.self_us_per_op", us(serverSelf/ops), n)
	res.set("server.cmd_p50_us", us(percentile(serverDur, 0.5)), len(serverDur))
	res.set("transport.capsules_per_op", capsules/ops, n)
	res.set("transport.peer_bytes_per_user_byte", peerBytes/userBytes, n)
	res.set("transport.deliver_p50_us", us(percentile(deliverDur, 0.5)), len(deliverDur))
	res.set("transport.deliver_us_per_op", us(deliver/ops), n)
	res.set("drive.ops_per_op", driveOps/ops, n)
	res.set("drive.read_bytes_per_user_byte", driveRead/userBytes, n)
	res.set("drive.write_bytes_per_user_byte", driveWrite/userBytes, n)
	res.set("drive.svc_p50_us", us(percentile(driveDur, 0.5)), len(driveDur))
	res.set("drive.us_per_op", us(driveTime/ops), n)
}

// traceSpan is one span in the trace file.
type traceSpan struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Op      uint32 `json:"op"`
	Cmd     uint64 `json:"cmd,omitempty"`
	Node    int8   `json:"node"`
	From    *int8  `json:"from,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   uint32 `json:"bytes,omitempty"`
}

var spanLayer = [...]string{spanOp: "host", spanSend: "transport", spanDrive: "drive", spanServer: "server"}

func (s span) export() traceSpan {
	ts := traceSpan{Layer: spanLayer[s.kind], Op: s.op, Cmd: s.cmd, Node: s.node,
		StartNS: s.start, EndNS: s.end, Bytes: s.bytes}
	rw := [...]string{"write", "read"}
	switch s.kind {
	case spanOp, spanDrive:
		ts.Name = rw[s.code]
	case spanSend:
		ts.Name = nvmeof.Opcode(s.code).String()
		from := s.from
		ts.From = &from
	case spanServer:
		ts.Name = "command"
	}
	return ts
}

// writeTrace writes the spans of the first traceFileOps user ops to
// <dir>/trace-<workload>.json: a header, then one span per line.
func writeTrace(dir, workload string, env environment, linked []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriter(f)
	head, err := json.Marshal(env)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "{\"workload\": %q, \"environment\": %s, \"time_unit\": \"ns since trace start\", \"spans\": [", workload, head)
	var firstOp uint32
	sep := "\n"
	for _, s := range linked {
		if firstOp == 0 {
			firstOp = s.op
		}
		if s.op >= firstOp+traceFileOps {
			break
		}
		b, err := json.Marshal(s.export())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "%s%s", sep, b)
		sep = ",\n"
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

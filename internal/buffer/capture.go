package buffer

import (
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// ChannelCapture accumulates the in-flight channel tuples of one unaligned
// checkpoint: for each input port, the data tuples that crossed the edge
// after the HAU snapshotted but before the port's token landed. It is the
// channel-state sibling of the Preserver's marshal-log — retained headers
// share emitted payloads (copy-on-retain), and the encoded log goes into a
// blob section instead of a spill file.
//
// A capture is owned by the HAU loop and is not safe for concurrent use.
type ChannelCapture struct {
	epoch uint64
	ports [][]*tuple.Tuple
	bytes int64
}

// NewChannelCapture returns an empty capture for epoch over nPorts input
// ports.
func NewChannelCapture(epoch uint64, nPorts int) *ChannelCapture {
	return &ChannelCapture{epoch: epoch, ports: make([][]*tuple.Tuple, nPorts)}
}

// Epoch returns the checkpoint epoch this capture belongs to.
func (c *ChannelCapture) Epoch() uint64 { return c.epoch }

// Log retains t (header copy, shared payload) on port's channel log.
func (c *ChannelCapture) Log(port int, t *tuple.Tuple) {
	c.ports[port] = append(c.ports[port], t.Retain())
	c.bytes += int64(t.MarshalledSize())
}

// Bytes returns the encoded size of all logged tuples so far.
func (c *ChannelCapture) Bytes() int64 { return c.bytes }

// Tuples returns how many tuples are logged across all ports.
func (c *ChannelCapture) Tuples() int {
	n := 0
	for _, ts := range c.ports {
		n += len(ts)
	}
	return n
}

// Streams marshals the per-port logs into channel-state streams labelled
// with each port's upstream id. Ports with empty logs are omitted.
func (c *ChannelCapture) Streams(labels []string) []storage.ChannelStream {
	var out []storage.ChannelStream
	for port, ts := range c.ports {
		if len(ts) == 0 {
			continue
		}
		out = append(out, storage.ChannelStream{
			Label:   labels[port],
			Count:   len(ts),
			Payload: tuple.MarshalMany(ts),
		})
	}
	return out
}

// Release recycles every logged tuple header and empties the capture.
func (c *ChannelCapture) Release() {
	for port, ts := range c.ports {
		for i, t := range ts {
			tuple.Put(t)
			ts[i] = nil
		}
		c.ports[port] = nil
	}
	c.bytes = 0
}

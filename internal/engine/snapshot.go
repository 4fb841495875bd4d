package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"popkit/internal/bitmask"
)

// Snapshot support: populations serialize to a compact binary format so
// long experiments (the clock hierarchy runs take hours at scale) can be
// checkpointed and resumed, and interesting configurations can be archived
// alongside the CSV figures. The format is versioned and self-describing
// enough to reject mismatched payloads, but deliberately does not encode
// the protocol or variable space — a snapshot is only meaningful to code
// that reconstructs the same Space.

const (
	snapshotMagic   = "POPK"
	snapshotVersion = 1
	kindDense       = byte(1)
	kindCounted     = byte(2)
)

func writeHeader(w io.Writer, kind byte) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, [2]byte{snapshotVersion, kind})
}

func readHeader(r io.Reader, wantKind byte) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("engine: reading snapshot header: %w", err)
	}
	if string(magic[:]) != snapshotMagic {
		return fmt.Errorf("engine: not a population snapshot")
	}
	var vk [2]byte
	if _, err := io.ReadFull(r, vk[:]); err != nil {
		return fmt.Errorf("engine: reading snapshot header: %w", err)
	}
	if vk[0] != snapshotVersion {
		return fmt.Errorf("engine: unsupported snapshot version %d", vk[0])
	}
	if vk[1] != wantKind {
		return fmt.Errorf("engine: snapshot holds population kind %d, want %d", vk[1], wantKind)
	}
	return nil
}

// WriteTo serializes the population. It returns the byte count written.
func (d *Dense) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindDense); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(d.agents))); err != nil {
		return 0, err
	}
	var rec [16]byte
	for _, id := range d.agents {
		s := d.states[id]
		binary.LittleEndian.PutUint64(rec[:8], s.Lo)
		binary.LittleEndian.PutUint64(rec[8:], s.Hi)
		if _, err := bw.Write(rec[:]); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(6 + 8 + 16*len(d.agents)), nil
}

// ReadDense deserializes a dense population.
func ReadDense(r io.Reader) (*Dense, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindDense); err != nil {
		return nil, err
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 2 || n > 1<<40 {
		return nil, fmt.Errorf("engine: implausible snapshot population size %d", n)
	}
	d := NewDense(int(n))
	for i := range d.agents {
		var lanes [2]uint64
		if err := binary.Read(br, binary.LittleEndian, &lanes); err != nil {
			return nil, fmt.Errorf("engine: truncated snapshot at agent %d: %w", i, err)
		}
		d.SetAgent(i, bitmask.State{Lo: lanes[0], Hi: lanes[1]})
	}
	return d, nil
}

// WriteTo serializes the species table. It returns the byte count written.
func (c *Counted) WriteTo(w io.Writer) (int64, error) {
	c.compact()
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindCounted); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(c.keys))); err != nil {
		return 0, err
	}
	for i, s := range c.keys {
		rec := [3]uint64{s.Lo, s.Hi, uint64(c.cnt[i])}
		if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(6 + 8 + 24*len(c.keys)), nil
}

// ReadCounted deserializes a counted population.
func ReadCounted(r io.Reader) (*Counted, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindCounted); err != nil {
		return nil, err
	}
	var k uint64
	if err := binary.Read(br, binary.LittleEndian, &k); err != nil {
		return nil, err
	}
	if k == 0 || k > 1<<24 {
		return nil, fmt.Errorf("engine: implausible species count %d", k)
	}
	table := make(map[bitmask.State]int64, k)
	for i := uint64(0); i < k; i++ {
		var rec [3]uint64
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("engine: truncated snapshot at species %d: %w", i, err)
		}
		if rec[2] > 1<<40 {
			return nil, fmt.Errorf("engine: implausible species population %d", rec[2])
		}
		table[bitmask.State{Lo: rec[0], Hi: rec[1]}] += int64(rec[2])
	}
	return NewCounted(table), nil
}

// Package pcap reads and writes the classic libpcap capture format
// (tcpdump-compatible, magic 0xa1b2c3d4, LINKTYPE_ETHERNET). The traffic
// generator uses it to export reproducible workloads, and the Logger NF's
// journal can be exported as a capture for offline inspection with standard
// tools — the reproduction's stand-in for the paper's testbed packet
// captures.
//
// Only the original (non-ng) format is implemented: microsecond timestamps,
// one linktype per file, no options. That is exactly what tcpdump -r needs.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Format constants.
const (
	magicMicros  = 0xa1b2c3d4
	versionMajor = 2
	versionMinor = 4

	// LinkTypeEthernet is LINKTYPE_ETHERNET (1).
	LinkTypeEthernet = 1

	fileHeaderLen   = 24
	recordHeaderLen = 16

	// DefaultSnapLen is the conventional no-truncation snap length.
	DefaultSnapLen = 262144
)

// Errors.
var (
	ErrBadMagic  = errors.New("pcap: bad magic")
	ErrTruncated = errors.New("pcap: truncated file")
)

// Packet is one captured record.
type Packet struct {
	// Time is the capture timestamp. The writer stores it as seconds +
	// microseconds since the epoch; purely relative (virtual) times work
	// fine and round-trip exactly at µs resolution.
	Time time.Duration
	// Data is the captured frame (possibly truncated to SnapLen).
	Data []byte
	// OrigLen is the original wire length (≥ len(Data)).
	OrigLen int
}

// Writer emits a pcap stream. Create with NewWriter, which writes the file
// header immediately.
type Writer struct {
	w       io.Writer
	snapLen int
	count   int
}

// NewWriter writes the global header for an Ethernet capture with the given
// snap length (0 selects DefaultSnapLen).
func NewWriter(w io.Writer, snapLen int) (*Writer, error) {
	if snapLen <= 0 {
		snapLen = DefaultSnapLen
	}
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone (8:12) and sigfigs (12:16) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(snapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: write header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// WritePacket appends one record, truncating to the snap length.
func (w *Writer) WritePacket(p Packet) error {
	data := p.Data
	origLen := p.OrigLen
	if origLen < len(data) {
		origLen = len(data)
	}
	if len(data) > w.snapLen {
		data = data[:w.snapLen]
	}
	var hdr [recordHeaderLen]byte
	sec := p.Time / time.Second
	usec := (p.Time % time.Second) / time.Microsecond
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(usec))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.count }

// Reader consumes a pcap stream. Both little- and big-endian files are
// accepted.
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	snapLen int
}

// NewReader parses the global header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read header: %w", err)
	}
	var order binary.ByteOrder
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicMicros:
		order = binary.LittleEndian
	default:
		if binary.BigEndian.Uint32(hdr[0:4]) == magicMicros {
			order = binary.BigEndian
		} else {
			return nil, ErrBadMagic
		}
	}
	if lt := order.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported linktype %d", lt)
	}
	return &Reader{r: r, order: order, snapLen: int(order.Uint32(hdr[16:20]))}, nil
}

// Next returns the next record, or io.EOF at a clean end of stream.
func (r *Reader) Next() (Packet, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: %w", ErrTruncated)
	}
	sec := r.order.Uint32(hdr[0:4])
	usec := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > uint32(r.snapLen)+65536 {
		return Packet{}, fmt.Errorf("pcap: implausible record length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: %w", ErrTruncated)
	}
	return Packet{
		Time:    time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
		Data:    data,
		OrigLen: int(origLen),
	}, nil
}

// ReadAll drains the stream.
func ReadAll(r io.Reader) ([]Packet, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Packet
	for {
		p, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

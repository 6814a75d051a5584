package isa

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// imageFile is the on-disk representation of an Image. Instruction words
// are base64-encoded little-endian bytes (JSON numbers cannot carry full
// 64-bit precision).
type imageFile struct {
	Magic   string         `json:"magic"`
	Words   string         `json:"words"`
	Symbols map[string]int `json:"symbols,omitempty"`
}

const imageMagic = "softhide-image-v1"

// SaveImage writes a program's image in the tool-interchange format.
func SaveImage(w io.Writer, p *Program) error {
	img := Encode(p)
	buf := make([]byte, 8*len(img.Words))
	for i, word := range img.Words {
		binary.LittleEndian.PutUint64(buf[i*8:], word)
	}
	f := imageFile{
		Magic:   imageMagic,
		Words:   base64.StdEncoding.EncodeToString(buf),
		Symbols: img.Symbols,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// LoadImage reads an image written by SaveImage and decodes it to the
// well-formed program it holds.
func LoadImage(r io.Reader) (*Program, error) {
	var f imageFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("isa: reading image: %w", err)
	}
	if f.Magic != imageMagic {
		return nil, fmt.Errorf("isa: bad image magic %q", f.Magic)
	}
	buf, err := base64.StdEncoding.DecodeString(f.Words)
	if err != nil {
		return nil, fmt.Errorf("isa: decoding image words: %w", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("isa: image word bytes not a multiple of 8")
	}
	img := &Image{Words: make([]uint64, len(buf)/8), Symbols: f.Symbols}
	for i := range img.Words {
		img.Words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	p, err := Decode(img)
	if err != nil {
		return nil, fmt.Errorf("isa: image does not decode: %w", err)
	}
	return p, nil
}

/* Reflected CRC-32 with polynomial 0xEDB88320, slicing-by-16, for
   Crc32. The running value is pre- and post-inverted so that chunked
   feeding composes; the OCaml side checks the range before any offset
   reaches this file.

   Slicing-by-16 folds sixteen input bytes per round through sixteen
   derived tables with independent lookups. The loop lives in C because
   the OCaml slicing-by-8 loop it replaces ran at under half its
   throughput, and the checksum guards every journal append, boot and
   replica catch-up.
   Words are assembled little-endian from single bytes, so the result
   does not depend on the host's byte order or on alignment. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t tables[16][256];

/* Called once at module initialisation, before any thread exists;
   every later call only reads the tables. */
CAMLprim value sosae_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][n] = c;
  }
  for (int t = 1; t < 16; t++)
    for (int n = 0; n < 256; n++)
      tables[t][n] = (tables[t - 1][n] >> 8) ^ tables[0][tables[t - 1][n] & 0xFF];
  return Val_unit;
}

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
}

/* [crc] is a value Crc32 returned (below 2^32); [pos, pos + len) lies
   within [s]. */
CAMLprim intnat sosae_crc32_sub(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  uint32_t c = ~(uint32_t)crc;
  while (len >= 16) {
    uint32_t a = c ^ le32(p), b = le32(p + 4), d = le32(p + 8), e = le32(p + 12);
    c = tables[15][a & 0xFF] ^ tables[14][(a >> 8) & 0xFF]
        ^ tables[13][(a >> 16) & 0xFF] ^ tables[12][a >> 24]
        ^ tables[11][b & 0xFF] ^ tables[10][(b >> 8) & 0xFF]
        ^ tables[9][(b >> 16) & 0xFF] ^ tables[8][b >> 24]
        ^ tables[7][d & 0xFF] ^ tables[6][(d >> 8) & 0xFF]
        ^ tables[5][(d >> 16) & 0xFF] ^ tables[4][d >> 24]
        ^ tables[3][e & 0xFF] ^ tables[2][(e >> 8) & 0xFF]
        ^ tables[1][(e >> 16) & 0xFF] ^ tables[0][e >> 24];
    p += 16;
    len -= 16;
  }
  for (; len > 0; len--)
    c = tables[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return (intnat)(uint32_t)~c;
}

CAMLprim value sosae_crc32_sub_byte(value crc, value s, value pos, value len)
{
  return Val_long(sosae_crc32_sub(Long_val(crc), s, Long_val(pos), Long_val(len)));
}

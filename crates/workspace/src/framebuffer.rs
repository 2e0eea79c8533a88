//! The virtual framebuffer underlying a user workspace.
//!
//! VNC's remote framebuffer protocol is substituted (see DESIGN.md) by a
//! tile-hash model: the workspace surface is a grid of tiles, each carrying
//! a content hash and an update sequence number.  Applications "draw" by
//! writing tile payloads; viewers replicate the grid from tile-update
//! messages and converge to the same checksum.  This preserves what the
//! experiments need from VNC — dirty-region tracking, incremental updates,
//! attach-time full transfers, and update throughput — without pixel data.

use ace_security::hash::{fnv64, Fnv64Stream};

/// Tile side in abstract pixels (VNC implementations commonly use 16×16).
pub const TILE_PIXELS: u32 = 16;

/// One tile's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tile {
    /// Hash of the tile's current content.
    pub hash: u64,
    /// Bumped on every write to the tile.
    pub seq: u64,
}

/// A tiled virtual framebuffer.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width_px: u32,
    height_px: u32,
    cols: u32,
    rows: u32,
    /// Row-major, `cols × rows` once anything is written; empty while the
    /// framebuffer is blank (most workspaces are never drawn into), and a
    /// missing tile reads as `Tile::default()`.
    tiles: Vec<Tile>,
    /// Global update counter.
    seq: u64,
}

/// Equal content, whether or not either side has allocated its grid.
impl PartialEq for Framebuffer {
    fn eq(&self, other: &Framebuffer) -> bool {
        (self.width_px, self.height_px, self.seq) == (other.width_px, other.height_px, other.seq)
            && (0..self.len()).all(|idx| self.tile(idx) == other.tile(idx))
    }
}

/// One tile update, as shipped to viewers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileUpdate {
    pub col: u32,
    pub row: u32,
    pub hash: u64,
    pub seq: u64,
}

impl Framebuffer {
    /// A blank framebuffer of the given pixel dimensions.  It holds no
    /// tiles until the first write that changes one.
    pub fn new(width_px: u32, height_px: u32) -> Framebuffer {
        Framebuffer {
            width_px,
            height_px,
            cols: width_px.div_ceil(TILE_PIXELS).max(1),
            rows: height_px.div_ceil(TILE_PIXELS).max(1),
            tiles: Vec::new(),
            seq: 0,
        }
    }

    /// Pixel dimensions.
    pub fn size(&self) -> (u32, u32) {
        (self.width_px, self.height_px)
    }

    /// Grid dimensions.
    pub fn grid(&self) -> (u32, u32) {
        (self.cols, self.rows)
    }

    /// Total updates applied.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn index(&self, col: u32, row: u32) -> Option<usize> {
        (col < self.cols && row < self.rows).then(|| (row * self.cols + col) as usize)
    }

    /// Tiles in the grid, allocated or not.
    fn len(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// What the tile at `idx` reads: blank until written.
    fn tile(&self, idx: usize) -> Tile {
        self.tiles.get(idx).copied().unwrap_or_default()
    }

    /// Write the tile at `idx`, allocating the grid on the first write.
    fn set(&mut self, idx: usize, tile: Tile) {
        if self.tiles.is_empty() {
            self.tiles = vec![Tile::default(); self.len()];
        }
        self.tiles[idx] = tile;
    }

    /// Draw `data` into the tile at `(col, row)`.  Returns the update to
    /// broadcast, or `None` if out of bounds or a no-op (same content).
    pub fn draw(&mut self, col: u32, row: u32, data: &[u8]) -> Option<TileUpdate> {
        let idx = self.index(col, row)?;
        let hash = fnv64(data);
        if self.tile(idx).hash == hash {
            return None; // identical content: VNC sends nothing
        }
        self.seq += 1;
        let tile = Tile {
            hash,
            seq: self.seq,
        };
        self.set(idx, tile);
        Some(TileUpdate {
            col,
            row,
            hash,
            seq: self.seq,
        })
    }

    /// Draw a pixel rectangle, touching every tile it overlaps (models an
    /// application window repaint).  Returns the updates.
    pub fn draw_rect(&mut self, x: u32, y: u32, w: u32, h: u32, data: &[u8]) -> Vec<TileUpdate> {
        if w == 0 || h == 0 {
            return Vec::new();
        }
        let c0 = x / TILE_PIXELS;
        let r0 = y / TILE_PIXELS;
        let c1 = ((x + w - 1) / TILE_PIXELS).min(self.cols.saturating_sub(1));
        let r1 = ((y + h - 1) / TILE_PIXELS).min(self.rows.saturating_sub(1));
        let mut updates = Vec::new();
        for row in r0..=r1 {
            for col in c0..=c1 {
                // Mix the tile coordinates into the content so overlapping
                // tiles differ.
                let mut payload = Vec::with_capacity(data.len() + 8);
                payload.extend_from_slice(&col.to_le_bytes());
                payload.extend_from_slice(&row.to_le_bytes());
                payload.extend_from_slice(data);
                if let Some(u) = self.draw(col, row, &payload) {
                    updates.push(u);
                }
            }
        }
        updates
    }

    /// Apply an update received from the server side (viewer path).
    pub fn apply(&mut self, update: TileUpdate) {
        if let Some(idx) = self.index(update.col, update.row) {
            let tile = Tile {
                hash: update.hash,
                seq: update.seq,
            };
            // Out-of-order datagrams: keep the newest.  An update equal to
            // what the tile reads (a blank server's full frame) writes
            // nothing.
            let held = self.tile(idx);
            if update.seq >= held.seq && tile != held {
                self.set(idx, tile);
                self.seq = self.seq.max(update.seq);
            }
        }
    }

    /// Every tile as an update, row-major.
    fn updates(&self) -> impl Iterator<Item = TileUpdate> + '_ {
        (0..self.len()).map(|idx| {
            let t = self.tile(idx);
            TileUpdate {
                col: idx as u32 % self.cols,
                row: idx as u32 / self.cols,
                hash: t.hash,
                seq: t.seq,
            }
        })
    }

    /// Every tile as an update (attach-time full transfer).
    pub fn full_frame(&self) -> Vec<TileUpdate> {
        self.updates().collect()
    }

    /// Content checksum over all tile hashes — two framebuffers with equal
    /// checksums show the same picture.  FNV-1a of the hashes' little-endian
    /// bytes, streamed.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv64Stream::unkeyed();
        for idx in 0..self.len() {
            h.update(&self.tile(idx).hash.to_le_bytes());
        }
        h.raw()
    }

    /// Tiles whose seq exceeds `after` (incremental update query).
    pub fn updates_since(&self, after: u64) -> Vec<TileUpdate> {
        self.updates().filter(|u| u.seq > after).collect()
    }
}

impl TileUpdate {
    /// Datagram wire form: `fb <session> <col> <row> <hash> <seq>`.
    pub fn to_wire(&self, session: &str) -> Vec<u8> {
        format!(
            "fb {session} {} {} {:016x} {}",
            self.col, self.row, self.hash, self.seq
        )
        .into_bytes()
    }

    /// Parse the datagram wire form; returns `(session, update)`.
    pub fn from_wire(payload: &[u8]) -> Option<(String, TileUpdate)> {
        let text = std::str::from_utf8(payload).ok()?;
        let mut parts = text.split(' ');
        if parts.next()? != "fb" {
            return None;
        }
        let session = parts.next()?.to_string();
        let col = parts.next()?.parse().ok()?;
        let row = parts.next()?.parse().ok()?;
        let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
        let seq = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some((
            session,
            TileUpdate {
                col,
                row,
                hash,
                seq,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_framebuffers_match() {
        let a = Framebuffer::new(1024, 768);
        let b = Framebuffer::new(1024, 768);
        assert_eq!(a.checksum(), b.checksum());
        assert_eq!(a.grid(), (64, 48));
    }

    /// A blank workspace holds no grid however it is read, and the first
    /// draw allocates all of it.  (Fails if `new` allocates.)
    #[test]
    fn a_blank_framebuffer_holds_no_tiles_until_drawn() {
        let mut fb = Framebuffer::new(1024, 768);
        assert_eq!(fb.full_frame().len(), 64 * 48);
        fb.checksum();
        assert!(fb.updates_since(0).is_empty());
        assert_eq!(fb.tiles.len(), 0);
        fb.draw(3, 2, b"window");
        assert_eq!(fb.tiles.len(), 64 * 48);
        assert_eq!(fb.updates_since(0).len(), 1);
    }

    /// A viewer that took a blank server's attach-time full frame holds no
    /// grid either, and the two are equal.  (Fails if `apply` writes a tile
    /// it already reads.)
    #[test]
    fn a_viewer_of_a_blank_server_holds_no_tiles() {
        let server = Framebuffer::new(1024, 768);
        let mut viewer = Framebuffer::new(1024, 768);
        for u in server.full_frame() {
            viewer.apply(u);
        }
        assert_eq!(viewer.tiles.len(), 0);
        assert_eq!(viewer, server);
        let mut drawn = server.clone();
        drawn.draw(0, 0, b"x");
        assert_ne!(viewer, drawn);
        for u in drawn.full_frame() {
            viewer.apply(u);
        }
        assert_eq!(viewer, drawn);
    }

    #[test]
    fn draw_changes_checksum_and_noop_does_not() {
        let mut fb = Framebuffer::new(320, 240);
        let before = fb.checksum();
        let u = fb.draw(0, 0, b"window").unwrap();
        assert_ne!(fb.checksum(), before);
        assert_eq!(u.seq, 1);
        // Same content again: no update.
        assert!(fb.draw(0, 0, b"window").is_none());
        assert_eq!(fb.seq(), 1);
    }

    #[test]
    fn out_of_bounds_draw_ignored() {
        let mut fb = Framebuffer::new(32, 32); // 2x2 tiles
        assert!(fb.draw(5, 5, b"x").is_none());
    }

    #[test]
    fn rect_touches_overlapping_tiles() {
        let mut fb = Framebuffer::new(64, 64); // 4x4 tiles
        let updates = fb.draw_rect(8, 8, 20, 20, b"win");
        // Rect spans tiles (0..=1, 0..=1).
        assert_eq!(updates.len(), 4);
    }

    #[test]
    fn viewer_converges_via_updates() {
        let mut server = Framebuffer::new(320, 240);
        let mut viewer = Framebuffer::new(320, 240);
        for i in 0..20u32 {
            let updates = server.draw_rect(i * 7 % 300, i * 11 % 220, 30, 10, &i.to_le_bytes());
            for u in updates {
                viewer.apply(u);
            }
        }
        assert_eq!(server.checksum(), viewer.checksum());
    }

    #[test]
    fn viewer_converges_despite_reordering() {
        let mut server = Framebuffer::new(160, 160);
        let mut updates = Vec::new();
        for i in 0..30u32 {
            updates.extend(server.draw_rect(i % 100, i % 100, 40, 40, &i.to_le_bytes()));
        }
        // Deliver in reverse order: newest-seq still wins per tile.
        let mut viewer = Framebuffer::new(160, 160);
        for u in updates.iter().rev() {
            viewer.apply(*u);
        }
        assert_eq!(server.checksum(), viewer.checksum());
    }

    #[test]
    fn full_frame_attach() {
        let mut server = Framebuffer::new(320, 240);
        server.draw_rect(0, 0, 320, 240, b"desktop");
        let mut viewer = Framebuffer::new(320, 240);
        for u in server.full_frame() {
            viewer.apply(u);
        }
        assert_eq!(server.checksum(), viewer.checksum());
    }

    #[test]
    fn incremental_updates_since() {
        let mut fb = Framebuffer::new(320, 240);
        fb.draw(0, 0, b"a");
        let mark = fb.seq();
        fb.draw(1, 1, b"b");
        let inc = fb.updates_since(mark);
        assert_eq!(inc.len(), 1);
        assert_eq!((inc[0].col, inc[0].row), (1, 1));
    }

    #[test]
    fn wire_roundtrip() {
        let u = TileUpdate {
            col: 3,
            row: 7,
            hash: 0xdeadbeef,
            seq: 42,
        };
        let wire = u.to_wire("sess_1");
        let (session, back) = TileUpdate::from_wire(&wire).unwrap();
        assert_eq!(session, "sess_1");
        assert_eq!(back, u);
        assert!(TileUpdate::from_wire(b"garbage").is_none());
    }
}

// Fixture: total float ordering — integer-key compatible, NaN-safe.
pub fn sort_depths(depths: &mut [f32]) {
    depths.sort_by(f32::total_cmp);
}

//! Lanes: how graph ingest uses more than one core.
//!
//! The edge-list parser and the CSR builder split their input into *lanes*
//! and run one scoped thread per lane. A parser lane reads the stretch of the
//! text that starts at its cut (a line start), from a file a chunk at a time,
//! counts its lines and hands its pairs to one shared output list. The
//! builder runs its lanes twice over one presized staging array: first each
//! lane writes its share of the edges into a window of its own in every vertex
//! block's stretch, then each sorts a run of whole blocks inside its own window
//! of the array, which becomes the adjacency. How many lanes is computed from
//! the input's size and the cores the process may run on — it is never
//! configured.

use qcm_sync::thread;

/// The least input a lane is given, so that it pays for its thread; a second
/// lane starts at twice this. The edge lists of the serve workloads and of
/// the Enron and YouTube stand-ins are smaller and ingest on the calling
/// thread.
pub(crate) const LANE_BYTES: usize = 4 << 20;

/// Lanes for `bytes` of input on the cores this process may run on.
pub(crate) fn lane_count(bytes: usize) -> usize {
    // The common case asks the OS nothing.
    if bytes < 2 * LANE_BYTES {
        return 1;
    }
    let cores = thread::available_parallelism().map_or(1, |cores| cores.get());
    lanes_on(bytes, cores)
}

/// Lanes for `bytes` of input on `cores` cores.
pub(crate) fn lanes_on(bytes: usize, cores: usize) -> usize {
    cores.min(bytes / LANE_BYTES).max(1)
}

/// Runs `work` on every job at once: the first on the calling thread, the
/// others on a scoped thread each. Results come back in job order; a lane's
/// panic resumes on the caller.
pub(crate) fn on_lanes<T: Send, R: Send>(jobs: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    if jobs.len() == 0 {
        return vec![work(first)];
    }
    let work = &work;
    thread::scope(|scope| {
        let spawned: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        let mut results = vec![work(first)];
        for lane in spawned {
            results.push(
                lane.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

/// Splits `items` into consecutive windows of the given lengths.
///
/// # Panics
/// Panics if the lengths add up to more than `items.len()`.
pub(crate) fn windows_mut<T>(
    mut items: &mut [T],
    lens: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut windows = Vec::new();
    for len in lens {
        let (window, rest) = items.split_at_mut(len);
        windows.push(window);
        items = rest;
    }
    windows
}

/// Closes the gaps lanes left in a presized output: lane `i` owned a window of
/// `lens[i]` items and filled the first `filled[i]` of them. Afterwards
/// `items` holds the filled prefixes back to back and nothing else.
pub(crate) fn close_gaps<T: Copy>(items: &mut Vec<T>, lens: &[usize], filled: &[usize]) {
    let (mut start, mut write) = (0, 0);
    for (&len, &kept) in lens.iter().zip(filled) {
        items.copy_within(start..start + kept, write);
        start += len;
        write += kept;
    }
    items.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_inputs_and_single_cores_get_one_lane() {
        assert_eq!(lanes_on(0, 64), 1);
        assert_eq!(lanes_on(LANE_BYTES - 1, 64), 1);
        assert_eq!(lanes_on(2 * LANE_BYTES - 1, 64), 1);
        assert_eq!(lanes_on(2 * LANE_BYTES, 64), 2);
        assert_eq!(lanes_on(1 << 30, 1), 1);
        assert_eq!(lanes_on(1 << 30, 2), 2);
        assert_eq!(lanes_on(5 * LANE_BYTES, 64), 5);
        // Below two lanes' worth the OS is not asked at all.
        assert_eq!(lane_count(2 * LANE_BYTES - 1), 1);
    }

    #[test]
    fn lanes_return_in_job_order_and_gaps_close() {
        assert_eq!(on_lanes(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(on_lanes(vec![7], |x| x + 1), vec![8]);

        // Three lanes fill a prefix of their window each.
        let mut out = vec![0u32; 9];
        let lens = [4, 2, 3];
        let jobs: Vec<_> = windows_mut(&mut out, lens)
            .into_iter()
            .enumerate()
            .collect();
        let filled = on_lanes(jobs, |(lane, window)| {
            let kept = window.len() - 1;
            window[..kept].fill(lane as u32 + 1);
            kept
        });
        assert_eq!(filled, vec![3, 1, 2]);
        close_gaps(&mut out, &lens, &filled);
        assert_eq!(out, vec![1, 1, 1, 2, 3, 3]);
    }
}

// Fixture: R8 must fire on `<`/`<=` float bounds that NaN passes inside
// `fn validate*`, and stay quiet when the path is also checked for
// finiteness, when the branch does not return Err, and outside
// validators. Linted as crates/mpiio/src/bad.rs.

pub struct Collective {
    pub buffer_bytes: f64,
    pub shuffle_bw: f64,
    pub gamma: f64,
    pub procs: u32,
}

impl Collective {
    pub fn validate(&self) -> Result<(), Error> {
        if self.buffer_bytes <= 0.0 { //~ R8
            return Err(Error::Buffer);
        }
        if self.shuffle_bw < 1e-9 { //~ R8
            return Err(Error::Shuffle);
        }
        Ok(())
    }

    pub fn validate_checked(&self) -> Result<(), Error> {
        if !self.buffer_bytes.is_finite() || self.buffer_bytes <= 0.0 {
            return Err(Error::Buffer);
        }
        if self.shuffle_bw.is_nan() || self.shuffle_bw < 0.0 {
            return Err(Error::Shuffle);
        }
        // A negated range rejects NaN: `!(NaN > 0.0 && …)` is true.
        if !(self.gamma > 0.0 && self.gamma <= 1.0) {
            return Err(Error::Gamma);
        }
        // An integer bound cannot be NaN.
        if self.procs < 1 {
            return Err(Error::Procs);
        }
        Ok(())
    }

    pub fn validate_gamma(&self) -> Result<(), Error> {
        // The negated range keeps NaN out: the Ok branch holds the
        // comparison, not the Err branch.
        let gamma = self.gamma;
        if gamma > 0.0 && gamma <= 1.0 {
            Ok(())
        } else {
            Err(Error::Gamma)
        }
    }

    pub fn validate_local(gamma: f64) -> Result<(), Error> {
        if gamma < -1.0 { //~ R8
            Err(Error::Gamma)
        } else {
            Ok(())
        }
    }

    pub fn clamp(&self) -> Result<f64, Error> {
        // Not a validator: out of R8's scope.
        if self.shuffle_bw <= 0.0 {
            return Err(Error::Shuffle);
        }
        Ok(self.shuffle_bw)
    }
}

#[cfg(test)]
mod tests {
    fn validate(x: f64) -> Result<(), ()> {
        if x <= 0.0 {
            return Err(());
        }
        Ok(())
    }
}
